"""Regression comparison between two recorded runs.

``nchecker bench gate`` reduces to :func:`compare_runs` over two run
records (ledger entries, ledger files, derived exports, or raw
``--metrics`` snapshots — see :func:`load_run`):

* **Counters** exact-match where deterministic.  The analysis pipeline
  is deterministic over (apps, options) — the scan-scaling benchmark
  asserts ``--jobs N`` counters equal serial ones, and counters are
  hash-seed-stable — so any drift in a deterministic counter is a
  behaviour change, not noise.  Counters under
  :data:`NONDETERMINISTIC_COUNTER_PREFIXES` (cache hit/miss counts,
  which depend on what previous runs left behind) are reported but never
  gate.
* **Profile trees** compare node for node.  A span path whose *count*
  changed is a regression: the tree's shape is a function of the code,
  like a counter.  The exception is the ``gc`` span
  (:data:`~repro.obs.trace.GC_SPAN`): how often the collector runs
  depends on the allocator's history, so its nodes never gate.
* **Timings** are the profile nodes' ``cum_ms``, compared with a
  configurable relative threshold (default ±20%,
  :data:`DEFAULT_TIMING_THRESHOLD`): a node's time exceeding
  ``baseline * (1 + threshold)`` is a regression, dropping below
  ``baseline * (1 - threshold)`` is reported as an improvement.  Nodes
  whose times sit under an absolute noise floor
  (:data:`DEFAULT_TIMING_MIN_MS`) never gate: a relative threshold on a
  0.04 ms node measures scheduler jitter, not the code.  A node only
  one run has is a count change, not a timing.

An options-fingerprint mismatch is itself a regression: comparing a
``--extended-checks`` run against a default baseline would otherwise
"fail" every counter in a perfectly healthy build.
"""

from __future__ import annotations

import json
from pathlib import Path

from .._record import field, record
from .profile import flatten_profile
from .trace import GC_SPAN

#: Relative wall-time threshold: 0.20 means a timing may grow 20% before
#: it gates.
DEFAULT_TIMING_THRESHOLD = 0.20

#: Absolute noise floor: a timing gates only when baseline or current
#: total reaches this many milliseconds.
DEFAULT_TIMING_MIN_MS = 5.0

#: Counter prefixes whose values depend on state outside the run (what a
#: previous scan left in the persistent cache) — compared for display,
#: never gated.
NONDETERMINISTIC_COUNTER_PREFIXES = ("cache.",)


def load_run(path) -> dict:
    """Load a run record from any of the shapes the tooling writes:

    * a ledger ``.jsonl`` file (takes the **last** parseable record),
    * a single ledger-entry / baseline / ``bench record --out`` JSON
      object (``provenance`` block lifted to the top level if present),
    * a raw ``scan --metrics`` snapshot (wrapped as an anonymous record).

    The timing summaries of older files (a ledger record's ``timings``,
    a raw snapshot's histogram section, written before the profile tree
    became the only clock) are ignored.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                candidate = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(candidate, dict):
                data = candidate
        if data is None:
            raise ValueError(f"{path}: no parseable run record")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    record = dict(data)
    prov = record.pop("provenance", None)
    if isinstance(prov, dict):
        for key, value in prov.items():
            record.setdefault(key, value)
    if "counters" not in record:
        raise ValueError(f"{path}: record carries no counters section")
    return record


def _is_deterministic(counter: str) -> bool:
    return not counter.startswith(NONDETERMINISTIC_COUNTER_PREFIXES)


@record
class CompareResult:
    """The outcome of one baseline/current diff."""

    baseline: dict
    current: dict
    threshold: float
    #: ``[name, base, cur, note]`` per differing counter.
    counter_rows: list = field(default_factory=list)
    #: ``[path, base_ms, cur_ms, delta_pct, note]`` per reported node time.
    timing_rows: list = field(default_factory=list)
    #: ``[path, base_count, cur_count, note]`` per node whose count differs.
    profile_rows: list = field(default_factory=list)
    #: Human-readable regression sentences; empty means the gate passes.
    regressions: list = field(default_factory=list)
    counters_compared: int = 0
    timings_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        pct = self.threshold * 100.0
        lines = ["== bench gate =="]
        for role, rec in (("baseline", self.baseline), ("current", self.current)):
            bits = [str(rec.get("run_id", "?"))]
            if rec.get("label"):
                bits.append(str(rec["label"]))
            if rec.get("git_sha"):
                bits.append(str(rec["git_sha"])[:10])
            apps = (rec.get("app_set") or {}).get("count")
            if apps is not None:
                bits.append(f"{apps} app(s)")
            lines.append(f"{role}: {', '.join(bits)}")
        lines.append(
            f"-- counters: {self.counters_compared} compared, "
            f"{len(self.counter_rows)} differ --"
        )
        for name, base, cur, note in self.counter_rows:
            lines.append(f"{name}: {base} -> {cur}  [{note}]")
        lines.append(
            f"-- timings: {self.timings_compared} compared, "
            f"threshold ±{pct:.0f}% --"
        )
        for name, base, cur, delta, note in self.timing_rows:
            lines.append(
                f"{name}: {base:.1f} -> {cur:.1f} ms ({delta:+.0f}%)  [{note}]"
            )
        if self.profile_rows:
            lines.append("-- profile --")
            for path, bc, cc, note in self.profile_rows:
                lines.append(f"{path}: count {bc} -> {cc}  [{note}]")
        if self.regressions:
            lines.append(f"-- verdict: {len(self.regressions)} regression(s) --")
            lines.extend(f"REGRESSION: {r}" for r in self.regressions)
        else:
            lines.append("-- verdict: OK --")
        return "\n".join(lines)


def compare_runs(
    baseline: dict,
    current: dict,
    threshold: float = DEFAULT_TIMING_THRESHOLD,
    min_total_ms: float = DEFAULT_TIMING_MIN_MS,
) -> CompareResult:
    """Diff two run records; see the module docstring for the rules."""
    result = CompareResult(baseline, current, threshold)

    base_fp = baseline.get("options_fingerprint")
    cur_fp = current.get("options_fingerprint")
    if base_fp and cur_fp and base_fp != cur_fp:
        result.regressions.append(
            f"options fingerprint differs ({base_fp} vs {cur_fp}) — "
            "these runs measured different configurations"
        )
    base_apps = baseline.get("app_set") or {}
    cur_apps = current.get("app_set") or {}
    if base_apps.get("digest") and cur_apps.get("digest") and (
        base_apps["digest"] != cur_apps["digest"]
    ):
        result.regressions.append(
            "app set differs — these runs scanned different inputs"
        )

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    names = sorted(set(base_counters) | set(cur_counters))
    result.counters_compared = len(names)
    for name in names:
        base = base_counters.get(name, 0)
        cur = cur_counters.get(name, 0)
        if base == cur:
            continue
        if _is_deterministic(name):
            result.counter_rows.append([name, base, cur, "MISMATCH"])
            result.regressions.append(
                f"deterministic counter {name} changed: {base} -> {cur}"
            )
        else:
            result.counter_rows.append([name, base, cur, "state-dependent"])

    base_profile = flatten_profile(baseline.get("profile") or {})
    cur_profile = flatten_profile(current.get("profile") or {})
    # A record without a profile tree (none was recorded) compares none.
    gated = {
        path for path in base_profile.keys() | cur_profile.keys()
        if path.rpartition("/")[2] != GC_SPAN
    } if base_profile and cur_profile else set()
    for path in sorted(gated):
        base = base_profile.get(path, {}).get("count", 0)
        cur = cur_profile.get(path, {}).get("count", 0)
        if base != cur:
            result.profile_rows.append([path, base, cur, "MISMATCH"])
            result.regressions.append(
                f"profile node {path} count changed: {base} -> {cur}"
            )

    shared = sorted(gated & base_profile.keys() & cur_profile.keys())
    result.timings_compared = len(shared)
    for path in shared:
        base = base_profile[path]["cum_ms"]
        cur = cur_profile[path]["cum_ms"]
        if base <= 0.0:
            continue  # nothing to take a ratio against
        if max(base, cur) < min_total_ms:
            continue  # under the noise floor: jitter, not behaviour
        delta = (cur - base) / base
        if delta > threshold:
            result.timing_rows.append(
                [path, base, cur, delta * 100.0, "REGRESSION"]
            )
            result.regressions.append(
                f"timing {path} regressed {delta * 100.0:+.0f}% "
                f"({base:.1f} -> {cur:.1f} ms, threshold "
                f"±{threshold * 100.0:.0f}%)"
            )
        elif delta < -threshold:
            result.timing_rows.append(
                [path, base, cur, delta * 100.0, "improved"]
            )
        elif abs(delta) >= threshold / 2.0:
            result.timing_rows.append([path, base, cur, delta * 100.0, "ok"])
    return result
