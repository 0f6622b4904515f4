"""Span-tree profile attribution: where a scan's wall time actually goes.

The tracer (:mod:`repro.obs.trace`) emits a flat Chrome-trace event
stream (``B``/``E`` pairs per ``(pid, tid)`` track).  This module folds
that stream into an **aggregated call tree**: one node per span *name*
per tree position, carrying

* ``count`` — how many spans closed at this position,
* ``cum_ms`` — wall time inside the span, children included,
* ``self_ms`` — wall time attributed to the span itself (``cum`` minus
  the time spent in its direct children).

Sibling spans with the same name pool into one node, so the tree answers
"where does the time go" by layer (``scan`` → ``pass:connectivity`` →
``artifact:callgraph`` → ...) rather than listing thousands of
individual spans the way the raw trace does.

A profile is a plain JSON-safe forest — ``{name: node}`` with
``node = {"count", "cum_ms", "self_ms", "children": {...}}`` — and
:func:`merge_profiles` pools any number of them (counts and times sum,
children merge recursively by name).  Merging is associative and
commutative, which is how per-app worker profiles survive the
``--jobs N`` snapshot/merge protocol: the parent's merged tree equals a
``--jobs 1`` run node-for-node on names and counts (times are wall
clock, so they agree only statistically).

``scan --profile`` renders the merged tree as a top-down table
(:func:`render_profile`, stderr) and embeds it in the ``--metrics`` JSON
under a ``profile`` key; ``nchecker bench`` records and diffs it
(:mod:`repro.obs.compare`).
"""

from __future__ import annotations

from typing import Iterable, Mapping


def _new_node() -> dict:
    return {"count": 0, "cum_ms": 0.0, "self_ms": 0.0, "children": {}}


def profile_from_events(events: Iterable[Mapping]) -> dict:
    """Fold a Chrome-trace event stream into an aggregated profile forest.

    Nesting is reconstructed per ``(pid, tid)`` track — the same contract
    Chrome applies to ``B``/``E`` pairs — and same-named spans at the
    same tree position aggregate into one node.  Malformed streams are
    tolerated rather than rejected: an ``E`` with no open ``B`` on its
    track is skipped, and a ``B`` that never closes contributes no time
    (its node is pruned unless a closed descendant needs the path).
    """
    forest: dict = {}
    # One stack per (pid, tid) track; frame = [node, start_ts, child_ms].
    stacks: dict[tuple, list] = {}
    for event in events:
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks.setdefault((event.get("pid"), event.get("tid")), [])
        if ph == "B":
            siblings = stack[-1][0]["children"] if stack else forest
            node = siblings.get(event["name"])
            if node is None:
                node = siblings[event["name"]] = _new_node()
            stack.append([node, event["ts"], 0.0])
        else:
            if not stack:
                continue  # E without B: tolerate, attribute nothing
            node, start_ts, child_ms = stack.pop()
            dur_ms = max(0.0, (event["ts"] - start_ts) / 1000.0)
            node["count"] += 1
            node["cum_ms"] += dur_ms
            node["self_ms"] += max(0.0, dur_ms - child_ms)
            if stack:
                stack[-1][2] += dur_ms
    return _normalize(forest)


def _normalize(forest: dict) -> dict:
    """Prune never-closed empty nodes and sort children by name, so two
    profiles with the same content serialize identically."""
    out = {}
    for name in sorted(forest):
        node = forest[name]
        children = _normalize(node["children"])
        if node["count"] == 0 and not children:
            continue
        out[name] = {
            "count": node["count"],
            "cum_ms": node["cum_ms"],
            "self_ms": node["self_ms"],
            "children": children,
        }
    return out


def merge_profiles(profiles: Iterable[Mapping]) -> dict:
    """Pool profile forests: counts and times sum, children merge by
    name.  Associative and commutative (up to float addition order), so
    worker trees merge into the same forest regardless of arrival
    order — the property the ``--jobs`` protocol relies on."""
    merged: dict = {}
    for forest in profiles:
        if not forest:
            continue
        _merge_into(merged, forest)
    return _normalize(merged)


def _merge_into(dst: dict, src: Mapping) -> None:
    for name, node in src.items():
        into = dst.get(name)
        if into is None:
            into = dst[name] = _new_node()
        into["count"] += node.get("count", 0)
        into["cum_ms"] += node.get("cum_ms", 0.0)
        into["self_ms"] += node.get("self_ms", 0.0)
        _merge_into(into["children"], node.get("children", {}))


def profile_total_ms(profile: Mapping) -> float:
    """Total attributed wall time: the sum of the root spans' cum_ms."""
    return sum(node.get("cum_ms", 0.0) for node in profile.values())


def flatten_profile(profile: Mapping, _prefix: tuple = ()) -> dict:
    """``{"a/b/c": {count, cum_ms, self_ms}}`` per tree position — the
    node-for-node view :mod:`repro.obs.compare` diffs."""
    flat = {}
    for name, node in profile.items():
        path = _prefix + (name,)
        flat["/".join(path)] = {
            "count": node.get("count", 0),
            "cum_ms": node.get("cum_ms", 0.0),
            "self_ms": node.get("self_ms", 0.0),
        }
        flat.update(flatten_profile(node.get("children", {}), path))
    return flat


def cum_ms_by_name(profile: Mapping) -> dict[str, float]:
    """Wall time per span name, pooled over every tree position — what
    ``--stats`` reports per pass and per artifact.  No pipeline layer
    opens a span inside one of its own name, so no time counts twice."""
    totals: dict[str, float] = {}
    for path, node in flatten_profile(profile).items():
        name = path.rpartition("/")[2]
        totals[name] = totals.get(name, 0.0) + node["cum_ms"]
    return totals


def render_profile(profile: Mapping) -> str:
    """The ``scan --stats --profile`` table: top-down, siblings sorted by
    cumulative time, with per-node self/cum and share of the total."""
    total = profile_total_ms(profile)
    rows: list[list[str]] = []

    def walk(forest: Mapping, depth: int) -> None:
        ordered = sorted(
            forest.items(), key=lambda kv: (-kv[1].get("cum_ms", 0.0), kv[0])
        )
        for name, node in ordered:
            share = 100.0 * node["cum_ms"] / total if total else 0.0
            rows.append([
                "  " * depth + name,
                str(node["count"]),
                f"{node['self_ms']:.1f}",
                f"{node['cum_ms']:.1f}",
                f"{share:.1f}",
            ])
            walk(node.get("children", {}), depth + 1)

    walk(profile, 0)
    header = ["span", "count", "self-ms", "cum-ms", "cum%"]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["== profile =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if not rows:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
