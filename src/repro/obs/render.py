"""Render a merged metrics snapshot as the ``--stats`` telemetry table.

The table answers "where does a scan spend its time" from the snapshot
alone: one row per pass (runs, findings, methods visited, wall time),
one row per artifact kind (builds/hits, build time), and a trailing list
of the engine counters and gauges (dataflow worklist iterations,
widenings, graph shape, ...).  Counts come from the snapshot's counters;
times come from its profile tree (``pass:<name>`` and
``artifact:<kind>`` spans), the one clock every layer is measured by.
Per-method artifacts (CFGs, def-use chains, constants) have no span of
their own, so their time shows as ``-``: it is inside the spans of the
passes and artifacts that asked for them.
"""

from __future__ import annotations

from .profile import cum_ms_by_name


def _fmt_ms(value: float) -> str:
    return f"{value:.1f}"


def _rows_to_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def render_telemetry(snapshot: dict) -> str:
    """The per-pass / per-artifact table for one (merged) snapshot."""
    counters: dict = snapshot.get("counters", {})
    gauges: dict = snapshot.get("gauges", {})
    span_ms = cum_ms_by_name(snapshot.get("profile") or {})
    lines: list[str] = ["== telemetry =="]

    pass_names = sorted(
        {name.split(".")[1] for name in counters if name.startswith("pass.")}
    )
    if pass_names:
        rows = [
            [
                name,
                str(counters.get(f"pass.{name}.runs", 0)),
                str(counters.get(f"pass.{name}.findings", 0)),
                str(counters.get(f"pass.{name}.methods_visited", 0)),
                _fmt_ms(span_ms.get(f"pass:{name}", 0.0)),
            ]
            for name in pass_names
        ]
        lines.append("-- passes --")
        lines.extend(_rows_to_table(
            ["pass", "runs", "findings", "methods", "totalms"], rows
        ))

    artifact_names = sorted(
        {
            name.split(".")[1]
            for name in counters
            if name.startswith("artifact.") and name.count(".") == 2
        }
    )
    if artifact_names:
        rows = [
            [
                name,
                str(counters.get(f"artifact.{name}.builds", 0)),
                str(counters.get(f"artifact.{name}.hits", 0)),
                _fmt_ms(span_ms[f"artifact:{name}"])
                if f"artifact:{name}" in span_ms else "-",
            ]
            for name in artifact_names
        ]
        lines.append("-- artifacts --")
        lines.extend(_rows_to_table(
            ["artifact", "builds", "hits", "build-ms"], rows
        ))

    other = {
        name: value
        for name, value in counters.items()
        if not name.startswith(("pass.", "artifact."))
    }
    if other or gauges:
        lines.append("-- engine --")
        for name, value in sorted(other.items()):
            lines.append(f"{name}: {value}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{name}: {value:g}")
    return "\n".join(lines)
