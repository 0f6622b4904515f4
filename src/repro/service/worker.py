"""The scan execution function the daemon dispatches to its pool.

A worker returns the batch scanner's
:class:`~repro.pipeline.batch.ScanPayload`, rendered by the same
:func:`~repro.pipeline.batch.render_payload` and under the same
:func:`~repro.pipeline.batch.with_telemetry` capture as ``nchecker
scan``; the daemon then prints it through the CLI's own document
renderers, so ``/findings`` and ``/sarif`` are the bytes of ``scan
--json`` and ``scan --sarif`` on the same app.

Workers are long-lived on purpose.  :func:`execute_scan` keeps one
:class:`~repro.core.checker.NChecker` per options profile in module
state, so a worker process carries its ``SessionCache`` across
requests — a resubmitted unchanged app reuses the whole artifact store
without touching disk, and an edited one (its content fingerprint
differs) gets a fresh session.
"""

from __future__ import annotations

from ..core.checker import NCheckerOptions
from ..obs import span
from ..pipeline.batch import ScanPayload, render_payload, with_telemetry

#: One warm checker per options profile, living as long as the worker
#: process — the daemon's "persistent pool" promise.  Keyed by the
#: frozen options record itself.
_CHECKERS: dict = {}


def execute_scan(
    apkt_text: str, filename: str, options: NCheckerOptions
) -> ScanPayload:
    """Scan one submitted app text into its JSON and SARIF payload, with
    span events, metrics and profile attached.

    Module-level so a ``ProcessPoolExecutor`` can dispatch it; also
    callable in-process (tests inject stub executors that do exactly
    that)."""
    from ..app.loader import loads_apk
    from ..core.checker import NChecker
    from ..ir.parser import ParseError

    def scan() -> ScanPayload:
        try:
            with span("load", path=filename):
                apk = loads_apk(apkt_text)
        except (ParseError, ValueError) as exc:
            return ScanPayload(filename, ok=False, error=f"{filename}: {exc}")
        checker = _CHECKERS.get(options)
        if checker is None:
            checker = _CHECKERS[options] = NChecker(options=options)
        return render_payload(
            filename, apk, checker.scan(apk), want_json=True, want_sarif=True
        )

    return with_telemetry(scan, trace=True, metrics=True)
