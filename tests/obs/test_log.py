"""The ``nchecker`` logger: stderr-only diagnostics, and the stdlib
``logging`` package loaded only when a record is emitted."""

import subprocess
import sys
from pathlib import Path

from repro.obs import configure_logging, get_logger

SRC = Path(__file__).resolve().parents[2] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC)},
    )


def test_exception_writes_message_and_traceback_to_stderr(capsys):
    configure_logging(0)
    try:
        raise ValueError("boom")
    except ValueError:
        get_logger("service.http").exception("handler crashed on %s", "GET /x")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("handler crashed on GET /x\nTraceback")
    assert "ValueError: boom" in captured.err


def test_records_below_the_level_never_load_logging():
    # Nor do plain records at or above it: the stand-in writes those.
    result = _python(
        "import sys\n"
        "from repro.obs import configure_logging, get_logger\n"
        "configure_logging(-1)\n"
        "get_logger('cli').warning('dropped %s', 1)\n"
        "get_logger('cli').info('dropped')\n"
        "print('logging' in sys.modules)\n"
        "configure_logging(0)\n"
        "get_logger('cli').info('kept %s', 2)\n"
        "print('logging' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
    assert result.stderr == "kept 2\n"


def test_a_traceback_loads_logging_and_later_records_go_through_it():
    result = _python(
        "import sys\n"
        "from repro.obs import configure_logging, get_logger\n"
        "configure_logging(0)\n"
        "get_logger('cli').info('plain %s', 1)\n"
        "try:\n"
        "    raise ValueError('boom')\n"
        "except ValueError:\n"
        "    get_logger('cli').exception('failed')\n"
        "print('logging' in sys.modules)\n"
        "import logging\n"
        "seen = []\n"
        "class Keep(logging.Handler):\n"
        "    def emit(self, record): seen.append(record.getMessage())\n"
        "logging.getLogger('nchecker').addHandler(Keep())\n"
        "get_logger('cli').info('forwarded %s', 2)\n"
        "print(seen)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["True", "['forwarded 2']"]
    assert result.stderr.startswith("plain 1\nfailed\nTraceback")
    assert result.stderr.endswith("ValueError: boom\nforwarded 2\n")


def test_unconfigured_warnings_reach_stderr_as_before():
    # Before configure_logging, records go where `logging` sends them
    # unconfigured: warnings and above to stderr, info dropped.
    result = _python(
        "from repro.obs import get_logger\n"
        "get_logger('cli').info('dropped')\n"
        "get_logger('cli').warning('kept')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "kept\n"
