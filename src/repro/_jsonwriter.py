"""An indent-2 JSON writer, byte for byte ``json.dumps(obj, indent=2)``.

CPython serves any ``indent`` from its pure-Python encoder, which keeps
every token of the document in one list and joins it at the end: for
the 3.8 MB SARIF log of a 285-app corpus that is a 21 MB tracemalloc
peak and about 250 ms.  This writer builds each container's text where
it is encoded (one ``join`` per list or dict), and strings go through
the C ``encode_basestring_ascii`` the compact encoder uses, so no token
list is ever held: 8 MB and about 70 ms for the same log, same bytes.

:func:`dumps` returns the document, or one value of it encoded at the
indent it sits at (``level``), ready to splice in; :func:`iter_chunks`
yields a document in pieces, streaming the outer ``depth`` container
levels item by item so a caller can write a large document without
holding it.

Semantics are ``json.dumps`` defaults with ``indent=2``: ``ensure_ascii``,
``","`` plus a newline and indent between items, ``": "`` after keys,
``[]``/``{}`` when empty, tuples as lists, ``bool`` before ``int``,
``int.__repr__``/``float.__repr__`` for subclasses (so ``IntEnum``
members print as numbers and ``str`` enums as strings), ``NaN`` and
``Infinity``, keys coerced as ``json`` coerces them, and ``TypeError``
for anything else.  Unlike ``json``, a self-containing container is not
detected: it fails with ``RecursionError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from typing import Iterator

_INFINITY = float("inf")


def dumps(obj, *, sort_keys: bool = False, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)``.

    With ``level``, ``obj`` is encoded as that text writes it when it
    sits ``level`` containers deep in a larger document: every line
    after the first is indented ``2 * level`` more spaces, so the text
    can be spliced in after the newline and indent that lead to it."""
    if sort_keys:
        obj = _sorted_keys(obj)
    return _encode(obj, "\n" + "  " * level)


def iter_chunks(obj, depth: int, _newline: str = "\n") -> Iterator[str]:
    """Pieces of :func:`dumps` ``(obj)``: containers in the outer
    ``depth`` levels are yielded item by item, anything deeper as one
    encoded piece per item."""
    if depth <= 0 or not obj or not isinstance(obj, (list, tuple, dict)):
        yield _encode(obj, _newline)
        return
    inner = _newline + "  "
    separator = inner
    if isinstance(obj, dict):
        yield "{"
        for key, value in obj.items():
            yield separator + _key(key) + ": "
            yield from iter_chunks(value, depth - 1, inner)
            separator = "," + inner
        yield _newline + "}"
    else:
        yield "["
        for value in obj:
            yield separator
            yield from iter_chunks(value, depth - 1, inner)
            separator = "," + inner
        yield _newline + "]"


def _encode(obj, newline: str) -> str:
    """``obj`` encoded at the indent ``newline`` ends in."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = ("," + inner).join([
            f"{_string(key) if type(key) is str else _key(key)}: "
            f"{_encode(value, inner)}"
            for key, value in obj.items()
        ])
        return f"{{{inner}{items}{newline}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = ("," + inner).join([_encode(value, inner) for value in obj])
        return f"[{inner}{items}{newline}]"
    if kind is int:
        return int.__repr__(obj)
    if kind is float:
        return _float(obj)
    return _encode_other(obj, newline)


def _encode_other(obj, newline: str) -> str:
    """Everything but the exact built-in container and number types, in
    the order ``json`` tests them."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), newline)
    if isinstance(obj, dict):
        return _encode(dict(obj.items()), newline)
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable"
    )


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    """A dict key, coerced to a string as ``json`` does and encoded."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


def _sorted_keys(obj):
    """``obj`` with every dict's items in ``sorted(dct.items())`` order,
    the order ``json``'s ``sort_keys`` writes them in."""
    if isinstance(obj, dict):
        return {key: _sorted_keys(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_sorted_keys(value) for value in obj]
    return obj
