"""Parser internals: comment stripping, argument splitting, edge cases."""

import pytest

from repro.ir import ParseError, parse_stmt
from repro.ir.parser import _split_args, _strip_comment, parse_atom


class TestStripComment:
    def test_plain_comment_removed(self):
        assert _strip_comment("x = 5  # set x") == "x = 5"

    def test_full_line_comment_empties(self):
        assert _strip_comment("# just a note") == ""

    def test_hash_inside_string_kept(self):
        assert _strip_comment("x = 'a#b'") == "x = 'a#b'"

    def test_invoke_callee_hash_kept(self):
        line = "invoke static com.U#log('x')"
        assert _strip_comment(line) == line

    def test_apostrophe_in_comment_safe(self):
        # Regression: "the paper's" in a comment must not leak through.
        assert _strip_comment("# the paper's FP shape") == ""

    def test_comment_after_invoke(self):
        assert (
            _strip_comment("invoke static com.U#log('x')  # logs")
            == "invoke static com.U#log('x')"
        )


class TestSplitArgs:
    def test_empty(self):
        assert _split_args("") == []

    def test_simple(self):
        assert _split_args("a, 5, null") == ["a", "5", "null"]

    def test_comma_inside_string(self):
        assert _split_args("'a,b', c") == ["'a,b'", "c"]

    def test_trailing_whitespace(self):
        assert _split_args("  a ,  b  ") == ["a", "b"]


class TestAtoms:
    def test_empty_string_constant(self):
        atom = parse_atom("''")
        assert atom.value == ""

    def test_garbage_rejected_with_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_atom("@@bad@@", line_no=42)
        assert "line 42" in str(excinfo.value)


class TestStatementEdgeCases:
    def test_return_with_string(self):
        stmt = parse_stmt("return 'done'")
        assert stmt.value.value == "done"

    def test_invoke_no_args(self):
        stmt = parse_stmt("invoke virtual c:com.C#close()")
        assert stmt.invoke().args == ()

    def test_negative_constant_argument(self):
        stmt = parse_stmt("invoke virtual c:com.C#seek(-5)")
        assert stmt.invoke().args[0].value == -5

    def test_missing_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_stmt("invoke virtual c:com.C#close(")

    def test_bad_assignment_target_rejected(self):
        with pytest.raises(ParseError):
            parse_stmt("com.Class.field = 5")

    def test_binary_with_negative_right(self):
        stmt = parse_stmt("x = a + -3")
        from repro.ir import BinaryExpr

        assert isinstance(stmt.value, BinaryExpr)
        assert stmt.value.right.value == -3

    @pytest.mark.parametrize(
        "line",
        [
            "invoke bogus c:com.C#m()",  # unknown dispatch kind
            "invoke static c:com.C#m()",  # static call with a receiver
            "invoke virtual com.C#m()",  # instance call without one
        ],
    )
    def test_invoke_shape_errors_are_parse_errors(self, line):
        """Structural invoke violations surface as ParseError, never as a
        bare ValueError from the value layer."""
        with pytest.raises(ParseError):
            parse_stmt(line)

    @pytest.mark.parametrize(
        "line",
        [
            "invoke virtual q:com.R#add request",  # invoke without "("
            "x = invoke virtual q:com.R#add request",
            "putfield this com.A.conn",  # store without " = value"
            "putfield this = conn",  # putfield without a field
            "putstatic com.A.count",
            "astore arr 0",
            "astore arr = v",  # astore without an index
            "x = newarray int",  # newarray without a size
            "x = getfield this",  # getfield without a field
            "x = aload arr",  # aload without an index
            "x = cast int",  # cast without a value
        ],
    )
    def test_malformed_statement_names_its_line(self, line):
        """Every malformed statement form raises ParseError carrying the
        line number and the offending text, never a bare Python error
        such as "substring not found" or "not enough values to unpack"."""
        with pytest.raises(ParseError) as excinfo:
            parse_stmt(line, line_no=26)
        message = str(excinfo.value)
        assert message.startswith("line 26: ")
        assert excinfo.value.line_no == 26
        assert line.split(" = ", 1)[-1] in message or line in message


def test_document_errors_give_the_document_line():
    """A statement error deep in an ``.apkt`` names its line in the file,
    not in the class section after the manifest."""
    from pathlib import Path

    from repro.app.loader import loads_apk

    path = Path(__file__).resolve().parents[2] / "examples" / "apps" / "newsreader.apkt"
    lines = path.read_text().splitlines()
    assert "#add(request)" in lines[25]
    lines[25] = lines[25].replace("#add(request)", "#add request")
    with pytest.raises(ParseError, match="^line 26: invoke missing opening parenthesis"):
        loads_apk("\n".join(lines))
