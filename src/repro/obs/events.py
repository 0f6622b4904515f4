"""The run ledger: an append-only JSONL log of performance runs.

``BENCH_pipeline.json`` is a single overwritten snapshot; the ledger is
its history.  One line per recorded run, each a self-contained JSON
record carrying everything a later ``nchecker bench compare`` needs:

* ``schema_version`` — :data:`LEDGER_SCHEMA_VERSION`, so readers can
  evolve;
* ``kind`` — ``"scan"`` (a ``nchecker scan`` run that collected
  telemetry) or ``"bench"`` (``nchecker bench record`` / the pipeline
  benchmarks);
* ``options_fingerprint`` — one digest over every analysis-shaping
  :class:`NCheckerOptions <repro.core.checker.NCheckerOptions>` field
  (:func:`repro.pipeline.cachestore.fingerprints.
  scan_options_fingerprint`), so runs under different flags never
  compare silently;
* ``app_set`` — ``{"count", "digest"}`` over the scanned app files'
  names and contents (:func:`app_set_digest`);
* ``counters`` / ``gauges`` / ``timings`` — the merged metrics snapshot
  (timings summarized: count/total/p50/p95/p99/max/decimation, raw
  reservoirs dropped so ledger lines stay small);
* ``profile`` — the aggregated span tree (:mod:`repro.obs.profile`);
* ``git_sha`` — ``HEAD`` if the working directory is a git checkout;
* ``run_id`` — a digest of the *deterministic* identity fields only
  (schema, kind, options fingerprint, app set, counters).  Wall-clock
  quantities never enter the identity, so re-running the same code on
  the same apps yields the same ``run_id`` — which is exactly what makes
  an unexpected ``run_id`` change meaningful.

The ledger directory resolves ``$NCHECKER_LEDGER_DIR``, then
``$XDG_STATE_HOME/nchecker``, then ``~/.local/state/nchecker``
(:func:`resolve_ledger_dir`); the file is ``ledger.jsonl``.  Appends are
single ``write()`` calls of one line, so concurrent recorders interleave
whole records; readers skip lines that do not parse instead of dying on
a torn tail.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it: hashlib has one
    from hashlib import blake2b

if TYPE_CHECKING:
    from ..core.checker import NCheckerOptions

#: Bump on any change to the ledger record layout older readers cannot
#: handle; readers check it before comparing.
LEDGER_SCHEMA_VERSION = 1

#: Schema of the derived exports (``BENCH_pipeline.json``, ``bench
#: record --out/--baseline``): version 1 was the schemaless pre-ledger
#: snapshot, version 2 adds ``schema_version`` + ``provenance``.
BENCH_SCHEMA_VERSION = 2

LEDGER_FILENAME = "ledger.jsonl"


def resolve_ledger_dir(explicit: Optional[str] = None) -> str:
    """The ledger root: ``explicit`` arg, then ``$NCHECKER_LEDGER_DIR``,
    then ``$XDG_STATE_HOME/nchecker`` (``~/.local/state/nchecker``)."""
    if explicit:
        return str(explicit)
    env = os.environ.get("NCHECKER_LEDGER_DIR")
    if env:
        return env
    base = os.environ.get("XDG_STATE_HOME") or os.path.join(
        os.path.expanduser("~"), ".local", "state"
    )
    return os.path.join(base, "nchecker")


def git_head_sha(cwd: Optional[str] = None) -> Optional[str]:
    """``HEAD``'s sha if the working directory is a git checkout with a
    usable ``git``; ``None`` otherwise (never raises)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and len(sha) == 40 else None


def app_set_digest(paths: Iterable) -> dict:
    """``{"count", "digest"}`` over the app files: basenames plus content
    hashes, order-independent, so the same app set digests identically
    from any directory layout (an unreadable file degrades to its name)."""
    entries = []
    for path in sorted(str(p) for p in paths):
        h = blake2b(digest_size=12)
        try:
            h.update(Path(path).read_bytes())
            digest = h.hexdigest()
        except OSError:
            digest = "unreadable"
        entries.append((os.path.basename(path), digest))
    h = blake2b(digest_size=16)
    for name, digest in sorted(entries):
        h.update(f"\0{name}={digest}".encode())
    return {"count": len(entries), "digest": h.hexdigest()}


def timing_summary(snapshot: dict) -> dict:
    """Histogram summaries of a metrics snapshot, reservoirs stripped —
    what a ledger record stores under ``timings``."""
    out = {}
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        out[name] = {
            "count": hist.get("count", 0),
            "total": hist.get("total", 0.0),
            "p50": hist.get("p50", 0.0),
            "p95": hist.get("p95", 0.0),
            "p99": hist.get("p99", 0.0),
            "max": hist.get("max", 0.0),
            "decimation": hist.get("decimation", 1),
        }
    return out


def run_identity(record: dict) -> str:
    """The deterministic identity digest: schema, kind, options
    fingerprint, app set, and counters — **never** wall-clock fields."""
    identity = {
        "schema_version": record.get("schema_version"),
        "kind": record.get("kind"),
        "options_fingerprint": record.get("options_fingerprint"),
        "app_set": record.get("app_set"),
        "counters": record.get("counters"),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return blake2b(blob.encode(), digest_size=12).hexdigest()


_AUTO = object()


def run_record(
    kind: str,
    *,
    options: "NCheckerOptions",
    app_set: dict,
    snapshot: dict,
    label: Optional[str] = None,
    wall_s: Optional[float] = None,
    git_sha=_AUTO,
) -> dict:
    """Build one ledger record from a merged metrics snapshot."""
    from ..pipeline.cachestore.fingerprints import scan_options_fingerprint

    record = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "options_fingerprint": scan_options_fingerprint(options),
        "app_set": dict(app_set),
        "git_sha": git_head_sha() if git_sha is _AUTO else git_sha,
        "wall_s": wall_s,
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "timings": timing_summary(snapshot),
        "profile": snapshot.get("profile"),
    }
    record["run_id"] = run_identity(record)
    return record


def provenance(record: dict) -> dict:
    """The provenance block a derived export (``BENCH_pipeline.json``,
    baseline files) carries alongside its measurements."""
    return {
        key: record.get(key)
        for key in (
            "schema_version", "run_id", "kind", "label",
            "options_fingerprint", "app_set", "git_sha",
        )
    }


class RunLedger:
    """One ledger directory: append records, read them back."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        return self.directory / LEDGER_FILENAME

    def append(self, record: dict) -> dict:
        """Append one record (stamping ``schema_version``/``run_id`` if
        the caller built the dict by hand) as a single JSONL line."""
        record = dict(record)
        record.setdefault("schema_version", LEDGER_SCHEMA_VERSION)
        record.setdefault("run_id", run_identity(record))
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        return record

    def entries(self) -> list[dict]:
        """Every parseable record, in append order; torn or foreign lines
        are skipped (the append contract makes them rare, not impossible)."""
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                out.append(record)
        return out

    def last(self, kind: Optional[str] = None) -> Optional[dict]:
        """The most recent record (of ``kind``, when given)."""
        for record in reversed(self.entries()):
            if kind is None or record.get("kind") == kind:
                return record
        return None
