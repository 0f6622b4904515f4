"""The opt-in persistent artifact cache (``--cache-dir`` /
``nchecker cache``).

The cross-run artifact cache, split along its three concerns so each can
evolve (and be replaced) independently:

* :mod:`~repro.pipeline.cachestore.fingerprints` — content addressing:
  app/registry/options fingerprints and the per-entry digest;
* :mod:`~repro.pipeline.cachestore.codec` — serialization: the
  persistent-id pickler rewiring live session objects, plus the
  magic/version/checksum header enforcing corruption-is-a-miss;
* :mod:`~repro.pipeline.cachestore.backend` — the narrow
  :class:`CacheBackend` protocol (``get/put/delete/list_entries/stats``
  plus ``gc/clear`` management), implemented by
  :class:`LocalDirBackend` (:mod:`~repro.pipeline.cachestore.local`),
  the on-disk store under one directory.

:class:`CacheStore` (:mod:`~repro.pipeline.cachestore.store`) ties the
three together for the scan session.  The user-facing guide is
``docs/CACHING.md``.
"""

from .backend import (
    GC_GRACE_SECONDS,
    CacheBackend,
    CacheStats,
    EntryInfo,
    EntryKey,
    GetResult,
    format_size,
    parse_size,
)
from .codec import CacheMiss, decode_artifact, encode_artifact
from .fingerprints import (
    CACHE_FORMAT_VERSION,
    OPTIONS_READ_BY,
    app_content_fingerprint,
    entry_digest,
    method_content_hash,
    options_fingerprint,
    registry_fingerprint,
)
from .local import LocalDirBackend
from .store import CacheStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "GC_GRACE_SECONDS",
    "OPTIONS_READ_BY",
    "CacheBackend",
    "CacheMiss",
    "CacheStats",
    "CacheStore",
    "EntryInfo",
    "EntryKey",
    "GetResult",
    "LocalDirBackend",
    "app_content_fingerprint",
    "decode_artifact",
    "encode_artifact",
    "entry_digest",
    "format_size",
    "method_content_hash",
    "options_fingerprint",
    "parse_size",
    "registry_fingerprint",
]
