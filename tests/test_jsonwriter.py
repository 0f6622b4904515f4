"""The indent-2 JSON writer (``repro._jsonwriter``) against the stdlib
``json.dumps(obj, indent=2)``, and the batch documents rendered through
it (docs/ARCHITECTURE.md, "Batch scanning")."""

import ast
import enum
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import repro
from repro._jsonwriter import dumps, iter_chunks
from repro.eval.sarif import assemble_sarif_log
from repro.pipeline.batch import (
    BatchScanner,
    json_chunks,
    json_document,
    sarif_chunks,
    sarif_document,
)

SRC = Path(repro.__file__).resolve().parent
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "apps"
APPS = sorted(str(p) for p in EXAMPLES.glob("*.apkt"))
CLEAN_APP = str(EXAMPLES / "chatsecure_fig1.apkt")


class Color(str, enum.Enum):
    RED = "red"
    SNOW = "snøw"


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


class Loud(int):
    """Encoded with ``int.__repr__``, never its own ``repr``/``str``."""

    __repr__ = __str__ = lambda self: "loud"


class LoudFloat(float):
    __repr__ = __str__ = lambda self: "loud"


def stdlib(obj, **options) -> str:
    return json.dumps(obj, indent=2, **options)


# Every code point, control characters and lone surrogates included.
ANY_TEXT = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
    max_size=12,
)
SCALARS = st.one_of(
    ANY_TEXT,
    st.integers(min_value=-(2**130), max_value=2**130),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color) + list(Level)),
)
KEYS = st.one_of(
    ANY_TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color) + list(Level)),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
    ),
    max_leaves=40,
)


class TestMatchesTheStdlib:
    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_dumps_equals_json_dumps(self, document):
        assert dumps(document) == stdlib(document)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS, st.integers(min_value=0, max_value=6))
    def test_chunks_join_to_the_document_at_every_depth(self, document, depth):
        assert "".join(iter_chunks(document, depth)) == stdlib(document)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_sort_keys_equals_json_dumps(self, document):
        try:
            expected = stdlib(document, sort_keys=True)
        except TypeError:  # keys of mixed types do not sort
            with pytest.raises(TypeError):
                dumps(document, sort_keys=True)
        else:
            assert dumps(document, sort_keys=True) == expected

    @pytest.mark.parametrize("document", [
        [], {}, (), "", [[]], {"a": {}}, [{}, []], -0.0, 2**100,
        {1: "int", 1.5: "float", True: "bool", None: "none", "s": "str"},
        {Level.LOW: Color.RED, Color.SNOW: Level.HIGH},
        {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4},
        [Loud(7), LoudFloat(0.5), LoudFloat(math.nan), {Loud(3): 1}],
        "\x00\x1f\x7f\ud800\U0001f600",
    ], ids=[
        "empty-list", "empty-dict", "empty-tuple", "empty-string",
        "nested-empty-list", "nested-empty-dict", "mixed-empties",
        "negative-zero", "big-int", "coerced-keys", "enum-keys-and-values",
        "non-finite-float-keys", "number-subclasses", "control-and-surrogate",
    ])
    def test_edge_cases(self, document):
        assert dumps(document) == stdlib(document)
        assert "".join(iter_chunks(document, 3)) == stdlib(document)

    @pytest.mark.parametrize("document", [
        object(), {"a": {1, 2}}, [b"bytes"], {(1, 2): "tuple key"},
        {"deep": [1, {"x": 2j}]},
    ])
    def test_unserializable_input_raises_type_error(self, document):
        with pytest.raises(TypeError) as expected:
            stdlib(document)
        with pytest.raises(TypeError) as actual:
            dumps(document)
        assert str(actual.value) == str(expected.value)
        with pytest.raises(TypeError):
            "".join(iter_chunks(document, 2))


@pytest.fixture(scope="module")
def payloads():
    return BatchScanner(jobs=1).scan_paths(
        APPS, want_json=True, want_sarif=True
    )


def stdlib_sarif(payloads) -> str:
    return stdlib(assemble_sarif_log(
        [kind for p in payloads for kind in p.sarif_kind_values],
        [result for p in payloads for result in p.sarif_results],
    ))


class TestBatchDocuments:
    """The CLI and daemon documents against the stdlib encoder over the
    same payloads."""

    @pytest.mark.parametrize("pick", [
        pytest.param(lambda ps: [], id="no-apps"),
        pytest.param(lambda ps: [p for p in ps if p.path == CLEAN_APP],
                     id="zero-findings"),
        pytest.param(lambda ps: ps, id="finding-free-app-among-many"),
        pytest.param(lambda ps: [p for p in ps if "newsreader" in p.path],
                     id="single-app"),
    ])
    def test_documents_equal_the_stdlib_encoding(self, payloads, pick):
        chosen = pick(payloads)
        expected_json = stdlib([p.json_dict for p in chosen]) + "\n"
        assert "".join(json_chunks(chosen)) == expected_json
        assert json_document(chosen) == expected_json
        expected_sarif = stdlib_sarif(chosen)
        assert "".join(sarif_chunks(chosen)) == expected_sarif
        assert sarif_document(chosen) == expected_sarif

    def test_clean_app_still_renders_an_empty_results_list(self, payloads):
        (clean,) = [p for p in payloads if p.path == CLEAN_APP]
        assert clean.n_findings == 0
        assert '"results": []' in sarif_document([clean])

    def test_documents_come_in_pieces(self, payloads):
        findings = sum(p.n_findings for p in payloads)
        assert findings > 1
        # One piece or more per SARIF result: no piece holds the log.
        assert len(list(sarif_chunks(payloads))) > findings
        assert len(list(json_chunks(payloads))) > len(payloads)


def test_no_module_calls_json_dumps_with_indent():
    """Indented JSON goes through the writer: the stdlib's pure-Python
    indent encoder is 3-4x slower and holds every token."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("dumps", "dump")
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
                and any(k.arg == "indent" for k in node.keywords)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
