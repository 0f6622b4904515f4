"""The local directory behind ``--cache-dir``: where cache entries live.

Layout:

    <root>/v<FORMAT>/<app_fp[:2]>/<app_fp>-<digest>.bin

one entry file per app content fingerprint, holding every cached
artifact of the app (the per-APK cache files that ``--jobs`` workers
share).  This module alone decides that layout: :attr:`EntryKey.
filename` formats an entry's file name and :meth:`LocalDirBackend.
list_entries` parses it back.  Trees of older format versions (v2 kept
one file per artifact kind under ``<app_fp>/``) are never read; ``gc``,
``clear`` and ``stats`` still cover them, so they can be collected.

:class:`LocalDirBackend` is a content-addressed blob store.  It never
interprets entry payloads — serialization lives in :mod:`.codec`,
addressing in :mod:`.fingerprints` — it only moves opaque ``bytes``
under an :class:`EntryKey`.  Its contract (enforced by
``tests/pipeline/test_cachestore.py``):

* **Never raising.**  ``get`` returns ``None`` for an absent *or
  unreadable* entry, ``put`` returns ``False`` when the write failed and
  ``delete`` ``False`` when nothing was removed.  Storage trouble
  degrades to a miss or a skipped write, never an exception.
* **Atomic publication.**  ``put`` writes a temp file and
  :func:`os.replace`\\ s it, so a concurrent reader sees either the
  previous complete blob or the new one, never a torn intermediate.
  Parallel ``--jobs`` workers sharing one directory race benignly.
* **Corruption is a miss.**  Blobs come back verbatim; the codec's
  magic/version/checksum header is what detects a damaged entry.  The
  cache store then ``delete``\\ s the key, so the rebuilt app's ``put``
  replaces it.
* **Eviction grace.**  ``gc`` never removes an entry younger than
  ``grace_seconds`` (default :data:`GC_GRACE_SECONDS`): a concurrent
  scanner that just published an entry must not lose it to a garbage
  collection racing the scan.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..._record import record
from ...obs import get_logger
from . import fingerprints

log = get_logger("cachestore.local")

#: ``gc`` keeps entries written within this many seconds regardless of
#: the size budget, so a collection racing a live scan cannot drop an
#: in-flight entry (override per call; the CLI exposes ``--min-age``).
GC_GRACE_SECONDS = 60.0


@record(frozen=True)
class EntryKey:
    """Address of one cache entry: one app under one library registry.

    ``app_fp`` is the app content fingerprint, ``digest`` the
    :func:`~repro.pipeline.cachestore.fingerprints.entry_digest` folding
    the library-model state.
    """

    app_fp: str
    digest: str

    @property
    def filename(self) -> str:
        """File name of the entry in its fingerprint-prefix directory."""
        return f"{self.app_fp}-{self.digest}.bin"


@record(frozen=True)
class EntryInfo:
    """One stored entry, as enumerated by ``list_entries``."""

    key: EntryKey
    size: int
    mtime: float


# ---------------------------------------------------------------------------
# Sizes (gc budgets, stats rendering)
# ---------------------------------------------------------------------------

_SIZE_UNITS = {"B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str) -> int:
    """``"512M"`` / ``"1.5G"`` / ``"512m"`` / ``"4096"`` → bytes.

    Accepts fractional values and case-insensitive ``K/M/G/T`` (and
    ``B``) suffixes; :func:`format_size` output always round-trips
    through this parser.  Anything else — including ``inf`` and
    ``nan`` — raises :class:`ValueError` quoting the whole input."""
    number = text.strip()
    multiplier = 1
    if number and number[-1].upper() in _SIZE_UNITS:
        multiplier = _SIZE_UNITS[number[-1].upper()]
        number = number[:-1]
    try:
        value = float(number) * multiplier
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"unparsable size: {text!r} (use e.g. 512M, 1.5G)")
    if value < 0:
        raise ValueError("size must be non-negative")
    return int(value)


def format_size(n: int) -> str:
    """Human size, guaranteed to ``parse_size`` back to within one
    rendered decimal (``1536 -> "1.5K" -> 1536``)."""
    for unit, width in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if n >= width:
            return f"{n / width:.1f}{unit}"
    return f"{n}B"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@record
class CacheStats:
    """What ``nchecker cache stats`` prints: entry count, apps and
    bytes."""

    label: str
    apps: int
    entries: int
    total_bytes: int

    def render(self) -> str:
        return (
            f"cache {self.label}\n"
            f"  {self.entries} "
            f"entr{'y' if self.entries == 1 else 'ies'} "
            f"for {self.apps} app(s), {format_size(self.total_bytes)}"
        )


# ---------------------------------------------------------------------------
# The directory
# ---------------------------------------------------------------------------


class LocalDirBackend:
    """Content-addressed blob store over one local directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalDirBackend({str(self.root)!r})"

    # -- paths ---------------------------------------------------------------

    @property
    def _version_root(self) -> Path:
        # Read through the module so a format bump (or a test's
        # monkeypatch) moves the path and the old tree becomes garbage,
        # not a crash.
        return self.root / f"v{fingerprints.CACHE_FORMAT_VERSION}"

    def entry_path(self, key: EntryKey) -> Path:
        return self._version_root / key.app_fp[:2] / key.filename

    # -- blob store ----------------------------------------------------------

    def get(self, key: EntryKey) -> Optional[bytes]:
        """The stored blob for ``key``, or ``None`` when absent or
        unreadable."""
        path = self.entry_path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.debug("cache read failed for %s: %s", path, exc)
            return None

    def put(self, key: EntryKey, blob: bytes) -> bool:
        """Store ``blob`` under ``key`` atomically; ``False`` when the
        write failed (the caller simply retries next run)."""
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        except OSError as exc:
            log.warning("cannot write cache entry %s: %s", path, exc)
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            log.warning("cannot write cache entry %s: %s", path, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def delete(self, key: EntryKey) -> bool:
        """Drop ``key``'s entry; ``False`` when there was none."""
        try:
            self.entry_path(key).unlink()
        except OSError:
            return False
        return True

    # -- enumeration / management --------------------------------------------

    def _entry_files(self) -> list[Path]:
        """Every entry file under every format-version directory (stats,
        gc, and clear cover stale ``v<N>`` trees too, including v2's
        per-kind files one directory deeper)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for pattern in ("v*/??/*.bin", "v*/??/*/*.bin")
            for p in self.root.glob(pattern)
            if p.is_file()
        )

    def list_entries(self) -> list[EntryInfo]:
        entries = []
        for path in self._entry_files():
            app_fp, _, digest = path.stem.rpartition("-")
            if len(path.relative_to(self.root).parts) == 4:
                # A v2 per-kind file: v2/??/<app_fp>/<kind>-<digest>.bin.
                app_fp = path.parent.name
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append(EntryInfo(
                EntryKey(app_fp, digest), st.st_size, st.st_mtime
            ))
        return entries

    def stats(self) -> CacheStats:
        entries = self.list_entries()
        return CacheStats(
            f"local {self.root}",
            len({info.key.app_fp for info in entries}),
            len(entries),
            sum(info.size for info in entries),
        )

    def gc(
        self, max_bytes: int, grace_seconds: float = GC_GRACE_SECONDS
    ) -> tuple[int, int]:
        """Evict least-recently-written entries until the directory fits
        ``max_bytes``, never touching entries younger than
        ``grace_seconds``; returns ``(entries removed, bytes freed)``."""
        files = []
        for p in self._entry_files():
            try:
                files.append((p, p.stat()))
            except OSError:
                continue
        total = sum(st.st_size for _p, st in files)
        files.sort(key=lambda pair: pair[1].st_mtime)  # oldest first
        fresh_after = time.time() - grace_seconds
        removed = 0
        freed = 0
        for path, st in files:
            if total <= max_bytes:
                break
            if st.st_mtime > fresh_after:
                # Within the grace window: a concurrent scanner may have
                # just published this entry — never evict it mid-flight.
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            freed += st.st_size
            removed += 1
        self._prune_empty_dirs()
        return removed, freed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        if not self.root.is_dir():
            return
        for directory in sorted(
            (p for p in self.root.glob("v*/**/") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                directory.rmdir()  # fails (correctly) unless empty
            except OSError:
                pass
