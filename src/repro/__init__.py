"""NChecker reproduction (EuroSys'16): detecting network programming
defects in Android-style app binaries by static analysis.

Quickstart::

    from repro import NChecker, load_apk

    result = NChecker().scan(load_apk("app.apkt"))
    for report in result.reports():
        print(report.render())

Packages:

* :mod:`repro.core` — the detector (the paper's contribution);
* :mod:`repro.ir`, :mod:`repro.cfg`, :mod:`repro.dataflow`,
  :mod:`repro.callgraph` — the program-analysis substrate;
* :mod:`repro.app`, :mod:`repro.libmodels` — the Android and
  network-library models;
* :mod:`repro.corpus` — synthetic evaluation corpus + ground truth;
* :mod:`repro.netsim` — network simulator and IR runtime;
* :mod:`repro.userstudy`, :mod:`repro.eval` — the paper's evaluation.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("APK", "Manifest", "dumps_apk", "load_apk", "loads_apk", "save_apk"),
    "core": (
        "DefectKind",
        "Finding",
        "NChecker",
        "NCheckerOptions",
        "ScanResult",
        "WarningReport",
        "build_report",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "APK",
    "DefectKind",
    "Finding",
    "Manifest",
    "NChecker",
    "NCheckerOptions",
    "ScanResult",
    "WarningReport",
    "build_report",
    "dumps_apk",
    "load_apk",
    "loads_apk",
    "save_apk",
    "__version__",
]
