"""Machine-readable export of experiment artifacts (CSV for series/CDFs,
JSON for everything), so figures can be re-plotted outside this repo."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from .._jsonwriter import dumps
from .experiments import ExperimentReport


def export_report(report: ExperimentReport, directory: Path) -> list[Path]:
    """Write ``report`` to ``directory``; returns the files written."""
    written: list[Path] = []
    text_path = directory / f"{report.exp_id}.txt"
    text_path.write_text(report.text + "\n")
    written.append(text_path)

    json_path = directory / f"{report.exp_id}.json"
    json_path.write_text(
        dumps(
            {
                "id": report.exp_id,
                "title": report.title,
                "data": _jsonable(report.data),
            },
            sort_keys=True,
        )
        + "\n"
    )
    written.append(json_path)

    csv_rows = _csv_rows(report)
    if csv_rows:
        csv_path = directory / f"{report.exp_id}.csv"
        with csv_path.open("w", newline="") as handle:
            csv.writer(handle).writerows(csv_rows)
        written.append(csv_path)
    return written


def _csv_rows(report: ExperimentReport) -> list[list[Any]]:
    """Series-shaped data becomes CSV; tables stay in .txt/.json."""
    data = report.data
    if report.exp_id == "fig3":
        rows = [["size_bytes", *data["series"].keys()]]
        for i, size in enumerate(data["sizes"]):
            rows.append([size, *[series[i] for series in data["series"].values()]])
        return rows
    if report.exp_id == "fig8":
        rows = [["ratio", "conn_cdf", "timeout_cdf"]]
        for (p, conn), (_p2, timeout) in zip(data["conn_cdf"], data["timeout_cdf"]):
            rows.append([p, conn, timeout])
        return rows
    if report.exp_id == "fig9":
        rows = [["ratio", "cdf"]]
        rows.extend([p, v] for p, v in data["cdf"])
        return rows
    if report.exp_id == "fig10":
        rows = [["task", "mean_minutes", "ci95_minutes"]]
        for name, (mean, ci) in data["per_task"].items():
            rows.append([name, round(mean, 3), round(ci, 3)])
        rows.append(["Overall", round(data["overall_mean"], 3), round(data["overall_ci"], 3)])
        return rows
    return []


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment data to JSON-safe values."""
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value") and not callable(value.value):  # Enum
        return value.value
    if hasattr(value, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(value).items()}
    return str(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if hasattr(key, "value") and not callable(key.value):
        return str(key.value)
    return str(key)
