"""The installed ``nchecker`` script (``[project.scripts]`` in
``pyproject.toml``).

:func:`run` raises the collector's young-generation threshold and only
then imports :mod:`repro.cli` and runs it, as ``python -m repro.cli``
does.  Imported under CPython's default threshold, the CLI's modules
start about nine collections while they load, before
:func:`repro.cli.run` could raise it.
"""

import gc

#: The young-generation collection threshold of the ``nchecker`` process
#: (CPython's default is 700 allocations).  Scanning allocates IR, CFGs
#: and facts that live until the process exits, so almost every young
#: collection scans survivors and frees nothing.  10,000 was measured on
#: the 10k-statement app (``perfbench/inputs.merged_app(1, 10000)``,
#: ``scan --json``, 2-vCPU VM): 139 collections and 42.6 ms of collector
#: pauses became 18 and 12.0 ms, with peak RSS unchanged.  The older
#: generations' thresholds are left alone.
GEN0_THRESHOLD = 10_000


def raise_young_threshold() -> None:
    """Set the young-generation threshold to :data:`GEN0_THRESHOLD`."""
    gc.set_threshold(GEN0_THRESHOLD, *gc.get_threshold()[1:])


def run() -> None:
    """:func:`repro.cli.run`, with the CLI loaded under the raised
    threshold."""
    raise_young_threshold()
    from .cli import run as cli_run

    cli_run()
