"""Render a merged metrics snapshot as the ``--stats`` telemetry table.

The table answers "where does a scan spend its time" from the snapshot
alone: one row per pass (wall time distribution, findings, methods
visited), one row per artifact kind (builds/hits, build-time total), and
a trailing list of the engine counters (dataflow worklist iterations,
widenings, patcher rounds, ...).
"""

from __future__ import annotations


def _fmt_ms(value: float) -> str:
    return f"{value:.1f}"


def _fmt_pctl(hist: dict, key: str) -> str:
    """A percentile cell; a trailing ``~`` marks it approximate (the
    reservoir decimated, so p50/p95/p99 are estimates — count/total/max
    stay exact)."""
    text = _fmt_ms(hist.get(key, 0.0))
    if hist.get("decimation", 1) > 1:
        text += "~"
    return text


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
    histograms: dict = snapshot.get("histograms", {})
    gauges: dict = snapshot.get("gauges", {})
    lines: list[str] = ["== telemetry =="]

    pass_names = sorted(
        {name.split(".")[1] for name in counters if name.startswith("pass.")}
    )
    if pass_names:
        rows = []
        for name in pass_names:
            hist = histograms.get(f"pass.{name}.wall_ms", {})
            rows.append([
                name,
                str(counters.get(f"pass.{name}.runs", 0)),
                str(counters.get(f"pass.{name}.findings", 0)),
                str(counters.get(f"pass.{name}.methods_visited", 0)),
                _fmt_pctl(hist, "p50"),
                _fmt_pctl(hist, "p95"),
                _fmt_pctl(hist, "p99"),
                _fmt_ms(hist.get("max", 0.0)),
                _fmt_ms(hist.get("total", 0.0)),
            ])
        lines.append("-- passes --")
        lines.extend(_rows_to_table(
            ["pass", "runs", "findings", "methods", "p50ms", "p95ms",
             "p99ms", "maxms", "totalms"],
            rows,
        ))

    artifact_names = sorted(
        {
            name.split(".")[1]
            for name in counters
            if name.startswith("artifact.") and name.count(".") == 2
        }
    )
    if artifact_names:
        rows = []
        for name in artifact_names:
            hist = histograms.get(f"artifact.{name}.build_ms", {})
            rows.append([
                name,
                str(counters.get(f"artifact.{name}.builds", 0)),
                str(counters.get(f"artifact.{name}.hits", 0)),
                _fmt_ms(hist.get("total", 0.0)),
            ])
        lines.append("-- artifacts --")
        lines.extend(_rows_to_table(
            ["artifact", "builds", "hits", "build-ms"], rows
        ))

    other = {
        name: value
        for name, value in counters.items()
        if not name.startswith(("pass.", "artifact."))
    }
    engine_hists = {
        name: hist
        for name, hist in histograms.items()
        if not name.startswith(("pass.", "artifact."))
    }
    if other or engine_hists or gauges:
        lines.append("-- engine --")
        for name, value in sorted(other.items()):
            lines.append(f"{name}: {value}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{name}: {value:g}")
        for name, hist in sorted(engine_hists.items()):
            lines.append(
                f"{name}: n={hist.get('count', 0)} "
                f"p50={_fmt_pctl(hist, 'p50')} "
                f"p95={_fmt_pctl(hist, 'p95')} "
                f"p99={_fmt_pctl(hist, 'p99')} "
                f"max={_fmt_ms(hist.get('max', 0.0))}"
            )
    return "\n".join(lines)
