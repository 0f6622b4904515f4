"""``repro._record`` compiles each generated method on its first call:
what a class costs before that, and what must keep working while its
methods are still placeholders (docs/ARCHITECTURE.md, "Records")."""

from __future__ import annotations

import inspect
import os
import pickle
import subprocess
import sys
import threading
import types
from pathlib import Path

import repro
from repro._record import _Deferred, field, record

SRC = Path(repro.__file__).resolve().parent.parent


def _deferred(cls, name: str) -> bool:
    return isinstance(cls.__dict__[name], _Deferred)


def _compiled(cls, name: str) -> bool:
    return isinstance(cls.__dict__[name], types.FunctionType)


def test_methods_compile_one_by_one_on_first_call():
    # Audit hooks cannot be removed, so the count runs in its own process.
    code = (
        "import sys\n"
        "sources = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and args[1] == '<string>':\n"
        "        source = args[0]\n"
        "        if isinstance(source, bytes):\n"
        "            source = source.decode()\n"
        "        if source.startswith('def __'):  # not the stdlib's namedtuples\n"
        "            sources.append(source.split('(')[0])\n"
        "sys.addaudithook(hook)\n"
        "from repro._record import field, record\n"
        "@record(frozen=True, slots=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    tags: tuple = ()\n"
        "@record\n"
        "class Bag:\n"
        "    items: list = field(default_factory=list)\n"
        "assert sources == [], sources\n"
        "a, b = Point(1), Point(1)\n"
        "assert sources == ['def __init__'], sources\n"
        "assert a == b and hash(a) == hash((1, ()))\n"
        "assert sources == ['def __init__', 'def __eq__', 'def __hash__'], sources\n"
        "assert Point(2) != a and len({a, b, Point(2)}) == 2\n"
        "assert len(sources) == 3, sources\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr


def test_first_call_puts_the_compiled_function_on_the_class():
    @record(frozen=True)
    class Pair:
        left: int
        right: int = 0

    for name in ("__init__", "__eq__", "__hash__"):
        assert _deferred(Pair, name)
    assert Pair(1) == Pair(1, 0)
    for name in ("__init__", "__eq__"):
        assert _compiled(Pair, name)
    assert _deferred(Pair, "__hash__")
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")
    assert Pair.__init__.__module__ == __name__


def test_signature_before_any_instance_compiles_only_init():
    @record(slots=True)
    class Span:
        name: str
        depth: int = 0
        children: list = field(default_factory=list)

    assert str(inspect.signature(Span)) == (
        "(name: 'str', depth: 'int' = 0, children: 'list' = <factory>) -> None"
    )
    assert _compiled(Span, "__init__") and _deferred(Span, "__eq__")


@record(frozen=True, slots=True)
class PickledKey:
    index: int
    label: str = ""


def test_instance_from_pickle_compares_and_hashes_before_any_construction():
    # Build the instance as pickle does, without __init__, so the class
    # has run none of its generated methods when the copy is loaded.
    original, other = PickledKey.__new__(PickledKey), PickledKey.__new__(PickledKey)
    original.__setstate__([7, "seven"])
    other.__setstate__([8, "seven"])
    loaded = pickle.loads(pickle.dumps(original))
    assert _deferred(PickledKey, "__init__") and _deferred(PickledKey, "__eq__")
    assert loaded == original and loaded is not original
    assert loaded != other
    assert hash(loaded) == hash((7, "seven"))
    assert _deferred(PickledKey, "__init__")
    assert PickledKey(7, "seven") == loaded


def test_subclass_built_before_its_base():
    @record(frozen=True)
    class Base:
        x: int

    @record(frozen=True)
    class Derived(Base):
        y: int = 2

    class Plain(Base):
        """Not a record: it inherits the base's placeholders."""

    derived = Derived(1)
    assert (derived.x, derived.y) == (1, 2)
    assert derived == Derived(1, 2) and hash(derived) == hash((1, 2))
    assert _deferred(Base, "__init__") and _deferred(Base, "__eq__")
    plain = Plain(5)
    assert plain.x == 5 and _compiled(Base, "__init__")
    assert "__init__" not in Plain.__dict__
    assert Base(5) != plain  # another class: NotImplemented both ways
    assert Base(5) == Base(5) and hash(Base(5)) == hash((5,))


def test_threads_constructing_a_class_for_the_first_time():
    @record(frozen=True, slots=True)
    class Cell:
        row: int
        col: int
        value: str = "."

    threads = 8
    barrier = threading.Barrier(threads)
    results: list = [None] * threads
    errors: list = []

    def build(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            cells = [Cell(index, col, str(col)) for col in range(50)]
            results[index] = (cells, {cell: cell.col for cell in cells})
        except Exception as exc:  # reported below
            errors.append(exc)

    workers = [threading.Thread(target=build, args=(i,)) for i in range(threads)]
    # Switch threads as often as the interpreter can, so first calls overlap.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    for index, (cells, table) in enumerate(results):
        assert [(c.row, c.col, c.value) for c in cells] == [
            (index, col, str(col)) for col in range(50)
        ]
        assert cells == [Cell(index, col, str(col)) for col in range(50)]
        assert table == {Cell(index, col, str(col)): col for col in range(50)}
    for name in ("__init__", "__eq__", "__hash__"):
        assert _compiled(Cell, name)


def test_hash_is_the_field_tuple_hash():
    @record(frozen=True)
    class Key:
        kind: str
        size: int = 0

    # Through the class before the first call, and through hash() after.
    assert Key.__hash__(Key("a", 3)) == hash(("a", 3))
    assert _compiled(Key, "__hash__")
    assert hash(Key("a", 3)) == hash(("a", 3))
    assert hash(Key("b")) == hash(("b", 0))


def test_class_level_calls_compile_through_the_placeholder():
    @record
    class Box:
        content: object = None

    box = Box.__new__(Box)
    Box.__init__(box, 3)
    assert box.content == 3
    assert Box.__eq__(box, Box(3)) is True
    assert Box.__eq__(box, object()) is NotImplemented
    assert Box.__hash__ is None
