"""Single-edit mutants of the example apps: the loader either returns a
validated APK or says where the input is wrong.

Each mutant makes one edit to one ``examples/apps/*.apkt`` file: a
character deleted, inserted or replaced, or a line dropped, duplicated
or swapped with the next.  Three outcomes are accepted: a validated
APK, a :class:`ParseError` carrying its line number, or a validation
error naming the method at fault.  Anything else (a bare Python
exception, a message without a location) fails the test.
"""

import re
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from repro.app.loader import loads_apk
from repro.ir.parser import ParseError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
TEXTS = [path.read_text() for path in sorted(EXAMPLES.glob("*.apkt"))]

#: Characters an edit inserts: the format's punctuation, digits and
#: identifier letters, plus whitespace and the comment mark.
ALPHABET = " \n\t#:=(){}<>,.'\"-_$0123456789abcxyzABCXYZ"
CHAR_EDITS = ("delete", "insert", "replace")
LINE_EDITS = ("drop-line", "duplicate-line", "swap-lines")

#: ``<class>.<method>: <problem>``, as ``IRMethod.validate`` words it.
METHOD_ERROR = re.compile(r"^([\w$.]+)\.([\w$<>]+): ")


def mutate(text: str, edit: str, where: int, char: str) -> str:
    if edit in CHAR_EDITS:
        pos = where % len(text)
        keep = pos + (0 if edit == "insert" else 1)
        return text[:pos] + ("" if edit == "delete" else char) + text[keep:]
    lines = text.split("\n")
    j = where % len(lines)
    if edit == "drop-line":
        del lines[j]
    elif edit == "duplicate-line":
        lines.insert(j, lines[j])
    else:
        k = min(j + 1, len(lines) - 1)
        lines[j], lines[k] = lines[k], lines[j]
    return "\n".join(lines)


def test_examples_load_unmutated():
    assert len(TEXTS) == 4
    for text in TEXTS:
        loads_apk(text)


@seed(7)
@settings(max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from(TEXTS),
    st.sampled_from(CHAR_EDITS + LINE_EDITS),
    st.integers(min_value=0, max_value=1 << 20),
    st.sampled_from(ALPHABET),
)
def test_single_edit_mutant_loads_or_fails_with_a_location(
    text, edit, where, char
):
    mutant = mutate(text, edit, where, char)
    try:
        loads_apk(mutant)
    except ParseError as exc:
        assert str(exc).startswith(f"line {exc.line_no}: "), str(exc)
        assert 1 <= exc.line_no <= max(1, len(mutant.splitlines())), str(exc)
    except ValueError as exc:
        match = METHOD_ERROR.match(str(exc))
        assert match is not None, str(exc)
        cls, method = match.groups()
        assert f"class {cls} " in mutant and f" {method}(" in mutant, str(exc)
