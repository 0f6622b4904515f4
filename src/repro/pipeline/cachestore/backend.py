"""The ``CacheBackend`` protocol: the narrow seam the cache store writes
through.

A backend is a content-addressed blob store.  It never interprets entry
payloads — serialization lives in :mod:`.codec`, addressing in
:mod:`.fingerprints` — it only moves opaque ``bytes`` under an
:class:`EntryKey`.  One implementation ships:
:class:`~repro.pipeline.cachestore.local.LocalDirBackend`.

Semantics a backend MUST honour (enforced by the conformance suite in
``tests/pipeline/test_cachestore.py``):

* **Best-effort, never raising.**  ``get`` returns ``None`` for an
  absent *or unreadable* entry; ``put`` returns the backend names
  actually written — empty on I/O failure — and ``delete`` the number
  of copies removed.  Storage trouble degrades to a miss or a skipped
  write, never an exception out of the backend.
* **Atomic publication.**  A concurrent reader of ``put`` sees either
  the previous complete blob or the new complete blob, never a torn
  intermediate (the local backend writes a temp file and
  ``os.replace``\\ s it).  Parallel ``--jobs`` workers sharing a
  backend therefore race benignly.
* **Corruption is a miss.**  Backends return blob bytes verbatim; the
  codec's magic/version/checksum header is what detects a damaged
  entry.  After the caller reports one (by ``delete``-ing the key), the
  backend must actually drop it so the rebuilt artifact's ``put``
  replaces it.
* **Eviction grace.**  ``gc`` never removes an entry younger than
  ``grace_seconds`` (default :data:`GC_GRACE_SECONDS`): a concurrent
  scanner that just published an entry must not lose it to a garbage
  collection racing the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

#: ``gc`` keeps entries written within this many seconds regardless of
#: the size budget, so a collection racing a live scan cannot drop an
#: in-flight entry (override per call; the CLI exposes ``--min-age``).
GC_GRACE_SECONDS = 60.0


@dataclass(frozen=True)
class EntryKey:
    """Backend-independent address of one cache entry.

    ``app_fp`` is the app content fingerprint, ``kind`` the artifact
    kind, ``digest`` the :func:`~repro.pipeline.cachestore.fingerprints.
    entry_digest` folding registry/options state.
    """

    app_fp: str
    kind: str
    digest: str

    @property
    def filename(self) -> str:
        """Canonical file name of the entry in its app directory."""
        return f"{self.kind}-{self.digest}.bin"


@dataclass(frozen=True)
class EntryInfo:
    """One stored entry, as enumerated by ``list_entries``."""

    key: EntryKey
    size: int
    mtime: float
    #: Name of the backend holding this copy.
    tier: str


@dataclass(frozen=True)
class GetResult:
    """A successful ``get``: the blob plus its provenance.

    ``tier`` names the backend that served the bytes — the namespace the
    caller's ``cache.<tier>.<kind>.hits`` accounting lands in.
    """

    blob: bytes
    tier: str


@runtime_checkable
class CacheBackend(Protocol):
    """What a cache backend must provide.  See the module docstring for
    the atomicity / corruption / grace semantics conformance requires."""

    #: Short backend name; namespaces this backend's metrics
    #: (``cache.<name>.*``) and labels its stats section.
    name: str

    def get(self, key: EntryKey) -> Optional[GetResult]:
        """The stored blob for ``key``, or ``None`` when absent or
        unreadable (an I/O error is a miss, never an exception)."""
        ...

    def put(self, key: EntryKey, blob: bytes) -> tuple[str, ...]:
        """Store ``blob`` under ``key`` atomically; returns the names of
        the backends actually written (empty when the write failed —
        best-effort, the caller simply retries next run)."""
        ...

    def delete(self, key: EntryKey) -> int:
        """Drop every copy of ``key``; returns the number removed."""
        ...

    def list_entries(self) -> list[EntryInfo]:
        """Every stored entry, for stats/gc."""
        ...

    def stats(self) -> "CacheStats":
        """Aggregate entry counts and sizes (per kind)."""
        ...

    def gc(
        self, max_bytes: int, grace_seconds: float = GC_GRACE_SECONDS
    ) -> tuple[int, int]:
        """Evict least-recently-written entries until the backend fits
        ``max_bytes``, never touching entries younger than
        ``grace_seconds``; returns ``(entries removed, bytes freed)``."""
        ...

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        ...


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


@dataclass
class CacheStats:
    """What ``nchecker cache stats`` prints: aggregate entry counts and
    bytes, broken down per artifact kind (so cache growth is
    attributable)."""

    label: str
    apps: int
    entries: int
    total_bytes: int
    #: kind -> (entry count, bytes)
    by_kind: dict[str, tuple[int, int]]

    def render(self) -> str:
        lines = [f"cache {self.label}"]
        lines.append(
            f"  {self.entries} "
            f"entr{'y' if self.entries == 1 else 'ies'} "
            f"for {self.apps} app(s), {format_size(self.total_bytes)}"
        )
        for kind in sorted(self.by_kind):
            count, size = self.by_kind[kind]
            lines.append(f"  {kind:<13} {count:>5}  {format_size(size)}")
        return "\n".join(lines)


def stats_from_entries(label: str, entries: list[EntryInfo]) -> CacheStats:
    """Fold a ``list_entries`` result into a :class:`CacheStats`."""
    by_kind: dict[str, tuple[int, int]] = {}
    apps: set[str] = set()
    total = 0
    for info in entries:
        count, kind_bytes = by_kind.get(info.key.kind, (0, 0))
        by_kind[info.key.kind] = (count + 1, kind_bytes + info.size)
        apps.add(info.key.app_fp)
        total += info.size
    return CacheStats(label, len(apps), len(entries), total, by_kind)
