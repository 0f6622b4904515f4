"""Cross-commit output pin: sha256 digests of every scan output format.

The determinism suite compares knobs against each other within one
tree; nothing there notices a change that moves *every* knob's output
the same way.  This file pins the bytes themselves.  The digests below
cover the report on stdout, ``--json`` and ``--sarif`` for the sample
apps in ``examples/apps``, a seeded six-app ``PAPER_PROFILE`` corpus
and the open-source corpus (whose inter-component and guard shapes make
every configuration below produce different bytes), under four analysis
configurations.  ``PATCH_DIGESTS`` pins what ``Patcher.patch_until_clean``
makes of the same inputs under the same configurations: every fixed
app's ``.apkt`` bytes plus its applied-patch list.

A digest mismatch means a scan or patch output changed.  If the change
is intended, rerun this module as a script to print the new table::

    PYTHONPATH=src:. python -m tests.pipeline.test_golden

and paste it over ``DIGESTS`` and ``PATCH_DIGESTS`` in the same commit
that changes the output, saying why in the commit message.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro import cli
from repro.app import dumps_apk, load_apk, save_apk
from repro.core import NChecker, NCheckerOptions, Patcher
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.corpus.opensource import build_opensource_corpus

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"

#: Analysis configurations: CLI flags plus library-only option overrides
#: (``inter_component`` has no CLI flag, so it is injected into the
#: options the CLI builds).
FLAG_SETS = {
    "default": ([], {}),
    "extended-checks": (["--extended-checks"], {}),
    "inter-component-guard-aware": (["--guard-aware"], {"inter_component": True}),
    "intraprocedural": (["--intraprocedural"], {}),
}

#: The same configurations as library options, for the patch loop.
PATCH_OPTIONS = {
    "default": {},
    "extended-checks": {"enabled_checks": DEFAULT_CHECKS | EXTENDED_CHECKS},
    "inter-component-guard-aware": {
        "guard_aware_connectivity": True, "inter_component": True,
    },
    "intraprocedural": {"interprocedural_connectivity": False},
}

#: Output formats: extra CLI arguments per format.
FORMATS = {
    "stdout": [],
    "json": ["--json"],
    "sarif": ["--sarif", "out.sarif"],
}

DIGESTS = {
    ('default', 'json'):
        '1:097a860d497520f8b22989c80564b11419e5ebd6d3470e56eef4e6cf2fbc87ad',
    ('default', 'sarif'):
        '1:c0b15326cbe5de645ff4e6b0b3c23946ca64408cc64ceea4a2f38884e275d78e',
    ('default', 'stdout'):
        '1:379a4275097d09f0ad6b3feeb06ea684fd0f6b3dfcb3ff79dc6cfd8b0d064d45',
    ('extended-checks', 'json'):
        '1:cf3c8a6dd6b440cb44f08d65f7cfd28f0343626024f6344ad8e0ebccc4ac3266',
    ('extended-checks', 'sarif'):
        '1:c1c655fb600ad7a04f7829c389225bf9fc9cef909b54ad823ba1fb1bdc1e6216',
    ('extended-checks', 'stdout'):
        '1:b6838232ed1a6545a4962c53cc59c424d2ea965667fb22b060c1967cf2626f06',
    ('inter-component-guard-aware', 'json'):
        '1:31989c88898ec0b41413d2937756749f3d7c414f5b08dfb32ca6976f636d36c3',
    ('inter-component-guard-aware', 'sarif'):
        '1:fc1f19d65f4a0786aea7caaebf715c4a289f86e504547b98fee6da6f00460871',
    ('inter-component-guard-aware', 'stdout'):
        '1:d20b53bd0390d496a19fa4ebc90bfd51adb74c5739cdad9882818054b007fb99',
    ('intraprocedural', 'json'):
        '1:ad4c26d7f2ed6147484eeee57424bff9089ef8ae8ea00c8a2235f3eafc899197',
    ('intraprocedural', 'sarif'):
        '1:21c0090c53fb78241dda22a0d193fbf53935ef9846bdb31d8bb57c09b1d65073',
    ('intraprocedural', 'stdout'):
        '1:1796e4e794ec48758a11893d0d6237dc33ba91e5476ce6bba38112383ad1bbb1',
}

PATCH_DIGESTS = {
    'default':
        '031a0d4b745c696c54c96780e3d1ae4297704a924a8a4f9a8af05165dcaed69c',
    'extended-checks':
        'dc6135b8935f6459e5ee541b1b3447a9806eb104d52523186b22832eee87a354',
    'inter-component-guard-aware':
        '2aba7a54bfe57940e8433ad3cf2013706843ec7ddcf01f42e99fe0f52986b437',
    'intraprocedural':
        '08e05d864eac129425b4d0bef802700522c4d40d38aca613c60133eebcfbee17',
}


def write_inputs(root: Path) -> list[str]:
    """Copy the sample apps and generate the corpora into ``root``;
    returns the relative file names (relative so SARIF artifact URIs do
    not depend on where the test runs)."""
    names = []
    for src in sorted(EXAMPLES.glob("*.apkt")):
        shutil.copy(src, root / src.name)
        names.append(src.name)
    corpus = CorpusGenerator(PAPER_PROFILE.scaled(6)).generate()
    for apk, _truth in corpus + build_opensource_corpus():
        name = f"{apk.package}.apkt"
        save_apk(apk, root / name)
        names.append(name)
    return names


def scan_digest(names: list[str], flag_set: str, fmt: str) -> str:
    """Run ``nchecker scan`` in the current directory and digest the
    format's output bytes, prefixed by the exit code."""
    flags, overrides = FLAG_SETS[flag_set]
    options = functools.partial(NCheckerOptions, **overrides)
    original, cli.NCheckerOptions = cli.NCheckerOptions, options
    stdout = StringIO()
    try:
        with redirect_stdout(stdout):
            code = cli.main(["scan", "-q", *flags, *FORMATS[fmt], *names])
    finally:
        cli.NCheckerOptions = original
    data = (Path("out.sarif").read_bytes() if fmt == "sarif"
            else stdout.getvalue().encode())
    return f"{code}:{hashlib.sha256(data).hexdigest()}"


def patch_digest(root: Path, names: list[str], flag_set: str) -> str:
    """Patch every app until clean under one configuration and digest
    the fixed apps' bytes and applied-patch lists."""
    checker = NChecker(options=NCheckerOptions(**PATCH_OPTIONS[flag_set]))
    patcher = Patcher()
    digest = hashlib.sha256()
    for name in names:
        fixed, applied = patcher.patch_until_clean(load_apk(root / name), checker)
        digest.update(dumps_apk(fixed).encode())
        for patch in applied:
            digest.update(f"{patch}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, write_inputs(root)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
def test_output_digest(inputs, monkeypatch, flag_set, fmt):
    root, names = inputs
    monkeypatch.chdir(root)
    assert scan_digest(names, flag_set, fmt) == DIGESTS[flag_set, fmt]


@pytest.mark.parametrize("flag_set", sorted(PATCH_OPTIONS))
def test_patch_digest(inputs, flag_set):
    root, names = inputs
    assert patch_digest(root, names, flag_set) == PATCH_DIGESTS[flag_set]


def _print_table() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        names = write_inputs(root)
        os.chdir(root)
        print("DIGESTS = {")
        for flag_set in sorted(FLAG_SETS):
            for fmt in sorted(FORMATS):
                digest = scan_digest(names, flag_set, fmt)
                print(f"    ({flag_set!r}, {fmt!r}):\n        {digest!r},")
        print("}")
        print("PATCH_DIGESTS = {")
        for flag_set in sorted(PATCH_OPTIONS):
            digest = patch_digest(root, names, flag_set)
            print(f"    {flag_set!r}:\n        {digest!r},")
        print("}")


if __name__ == "__main__":
    _print_table()
