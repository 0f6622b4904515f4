"""The opt-in persistent artifact cache (``--cache-dir`` /
``nchecker cache``).

The cross-run artifact cache, split along its three concerns:

* :mod:`~repro.pipeline.cachestore.fingerprints` — content addressing:
  the app content fingerprint and the per-entry digest;
* :mod:`~repro.pipeline.cachestore.codec` — serialization: one pickle
  of an app's artifacts with live session objects written as
  references, plus the magic/version/checksum header enforcing
  corruption-is-a-miss;
* :mod:`~repro.pipeline.cachestore.local` — storage:
  :class:`LocalDirBackend`, one entry file per app under one directory,
  and their ``gc/clear/stats`` management.

:class:`CacheStore` (:mod:`~repro.pipeline.cachestore.store`) ties the
three together for the scan session.  The user-facing guide is
``docs/CACHING.md``.
"""

from .codec import CacheMiss, decode_entry, encode_entry
from .fingerprints import (
    CACHE_FORMAT_VERSION,
    app_content_fingerprint,
    entry_digest,
    method_content_hash,
    registry_fingerprint,
)
from .local import (
    GC_GRACE_SECONDS,
    CacheStats,
    EntryInfo,
    EntryKey,
    LocalDirBackend,
    format_size,
    parse_size,
)
from .store import CacheStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "GC_GRACE_SECONDS",
    "CacheMiss",
    "CacheStats",
    "CacheStore",
    "EntryInfo",
    "EntryKey",
    "LocalDirBackend",
    "app_content_fingerprint",
    "decode_entry",
    "encode_entry",
    "entry_digest",
    "format_size",
    "method_content_hash",
    "parse_size",
    "registry_fingerprint",
]
