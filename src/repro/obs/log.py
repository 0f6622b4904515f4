"""Diagnostic logging under one ``nchecker`` logger tree.

Everything that is *about* a run rather than *output of* a run — "wrote
SARIF log to ...", per-app progress heartbeats, debug chatter — goes
through :func:`get_logger` so machine-readable stdout (``--json`` /
``--sarif`` / report text) is never polluted: the handler writes to
whatever ``sys.stderr`` is at emit time (so pytest capture and stream
redirection both work), and ``--quiet`` / ``--verbose`` move one level
knob instead of hunting down prints.

Verbosity mapping (:func:`configure_logging`): ``-1`` or lower → errors
only, ``0`` (default) → info, ``1`` or higher → debug.

The stdlib ``logging`` package (with the ``traceback``, ``linecache``,
``tokenize`` and ``string`` it pulls in, about 10 ms) loads only for a
record that needs it, one with a traceback or keyword options, so a scan
that logs plain lines ("wrote SARIF log to ...") never imports it.
:func:`get_logger` hands out a stand-in that, while ``logging`` is not
loaded, drops records below the configured level and writes the others'
messages to stderr itself, as the handler would; once ``logging`` is
loaded it forwards everything to the real logger.
:func:`configure_logging` records the level and sets up the real logger
when ``logging`` loads.
"""

from __future__ import annotations

import sys
from typing import Optional

ROOT_LOGGER = "nchecker"

DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

#: Records below this level cannot be emitted while ``logging`` is not
#: loaded: the configured level, or before configuration the root
#: logger's default, ``WARNING``.
_threshold = WARNING
#: The configured level, applied to the real logger when ``logging``
#: loads (``None``: nothing to apply).
_pending_level: Optional[int] = None


class _LazyLogger:
    """A ``logging.Logger`` stand-in with the calls the package makes."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _log(self, level: int, method: str, msg, args, kwargs) -> None:
        if "logging" not in sys.modules:
            if level < _threshold:
                return
            if method != "exception" and not kwargs:
                # The line the handler (or, unconfigured, the root
                # logger's last resort) would write: the bare message.
                try:
                    sys.stderr.write((str(msg) % args if args else str(msg)) + "\n")
                except (OSError, ValueError):
                    pass  # logging, too, never raises out of a record
                return
        getattr(_real_logger(self.name), method)(msg, *args, **kwargs)

    def debug(self, msg, *args, **kwargs) -> None:
        self._log(DEBUG, "debug", msg, args, kwargs)

    def info(self, msg, *args, **kwargs) -> None:
        self._log(INFO, "info", msg, args, kwargs)

    def warning(self, msg, *args, **kwargs) -> None:
        self._log(WARNING, "warning", msg, args, kwargs)

    def error(self, msg, *args, **kwargs) -> None:
        self._log(ERROR, "error", msg, args, kwargs)

    def exception(self, msg, *args, **kwargs) -> None:
        self._log(ERROR, "exception", msg, args, kwargs)


def _real_logger(name: str):
    """The ``logging`` logger ``name``, with any pending configuration
    applied first."""
    import logging

    if _pending_level is not None:
        _apply_configuration()
    return logging.getLogger(name)


def _apply_configuration() -> None:
    """Attach the stderr handler (once) and set the pending level."""
    global _pending_level
    import logging

    class _DynamicStderrHandler(logging.Handler):
        """Writes to the *current* ``sys.stderr`` (looked up per record,
        not captured at handler creation — test harnesses swap the
        stream)."""

        def emit(self, record) -> None:
            try:
                sys.stderr.write(self.format(record) + "\n")
            except Exception:  # pragma: no cover - never raise out of logging
                self.handleError(record)

    logger = logging.getLogger(ROOT_LOGGER)
    if not any(getattr(h, "nchecker_stderr", False) for h in logger.handlers):
        handler = _DynamicStderrHandler()
        handler.nchecker_stderr = True
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.propagate = False
    logger.setLevel(_pending_level)
    _pending_level = None


def get_logger(name: str = "") -> _LazyLogger:
    """The ``nchecker`` logger, or a child (``get_logger("cli")``)."""
    return _LazyLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def configure_logging(verbosity: int = 0) -> _LazyLogger:
    """Attach the stderr handler (idempotent) and set the level from the
    CLI's ``--quiet``/``--verbose`` count."""
    global _threshold, _pending_level
    if verbosity < 0:
        _threshold = ERROR
    elif verbosity == 0:
        _threshold = INFO
    else:
        _threshold = DEBUG
    _pending_level = _threshold
    if "logging" in sys.modules:
        _real_logger(ROOT_LOGGER)
    return get_logger()
