"""The run record: what ``nchecker scan --metrics FILE`` writes, and the
one document ``nchecker bench gate`` compares.

A record is the merged metrics snapshot of one scan plus the identity
that says what was measured:

* ``schema_version`` — :data:`RECORD_SCHEMA_VERSION`, so readers can
  evolve;
* ``options_fingerprint`` — one digest over every analysis-shaping
  :class:`NCheckerOptions <repro.core.checker.NCheckerOptions>` field
  (:func:`scan_options_fingerprint`), so runs under different flags
  never compare silently;
* ``app_set`` — ``{"count", "digest"}`` over the scanned app files'
  names and contents (:func:`app_set_digest`);
* ``run_id`` — a digest of the *deterministic* identity fields only
  (schema, options fingerprint, app set, counters).  Wall-clock
  quantities never enter it, so re-running the same code on the same
  apps, at any ``--jobs``, yields the same ``run_id`` — which is exactly
  what makes an unexpected ``run_id`` change meaningful;
* ``counters`` / ``gauges`` — the merged metrics snapshot;
* ``profile`` — the aggregated span tree (:mod:`repro.obs.profile`),
  the run's only timing record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it: hashlib has one
    from hashlib import blake2b

if TYPE_CHECKING:
    from ..core.checker import NCheckerOptions

#: Bump on any change to the record layout.  Version 4: the ``scan
#: --metrics`` document is the run record (no ``kind``, ``label``,
#: ``git_sha``, ``wall_s`` or ``provenance`` block).
RECORD_SCHEMA_VERSION = 4

#: Schema of ``BENCH_pipeline.json``, which
#: ``benchmarks/test_pipeline_scaling.py`` writes: version 3 dropped the
#: timing histograms (profile trees replace them).
BENCH_SCHEMA_VERSION = 3

#: The format tag :func:`scan_options_fingerprint` hashes first.  Fixed:
#: recorded runs (``benchmarks/bench_baseline.json``) must keep their
#: fingerprints.
_OPTIONS_FINGERPRINT_FORMAT = 2


def scan_options_fingerprint(options: "NCheckerOptions") -> str:
    """One digest over every analysis-shaping option field.

    The storage-only ``cache_dir`` is excluded: it can never change scan
    output.  Unordered collections are sorted before hashing so the
    digest is stable across interpreter hash seeds.
    """
    from ..libmodels import LIBMODELS_VERSION

    h = blake2b(digest_size=12)
    h.update(f"fmt{_OPTIONS_FINGERPRINT_FORMAT};lib{LIBMODELS_VERSION}".encode())
    for name in type(options).__record_fields__:
        if name == "cache_dir":
            continue
        value = getattr(options, name)
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        h.update(f"\0{name}={value!r}".encode())
    return h.hexdigest()


def git_head_sha(cwd: Optional[str] = None) -> Optional[str]:
    """``HEAD``'s sha if the working directory is a git checkout with a
    usable ``git``; ``None`` otherwise (never raises).  It stamps
    ``BENCH_pipeline.json``; no run record carries it."""
    import subprocess

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


def run_identity(record: dict) -> str:
    """The deterministic identity digest: schema, options fingerprint,
    app set, and counters — **never** wall-clock fields."""
    identity = {
        key: record.get(key)
        for key in ("schema_version", "options_fingerprint", "app_set", "counters")
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return blake2b(blob.encode(), digest_size=12).hexdigest()


def run_record(*, options: "NCheckerOptions", app_set: dict, snapshot: dict) -> dict:
    """The run record of one scan, from its merged metrics snapshot."""
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "options_fingerprint": scan_options_fingerprint(options),
        "app_set": dict(app_set),
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "profile": snapshot.get("profile"),
    }
    return {"run_id": run_identity(record), **record}
