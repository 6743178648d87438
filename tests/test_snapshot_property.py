"""Property-based snapshot tests: arbitrary sessions must round-trip.

Hypothesis drives a small arithmetic engine through arbitrary
interleavings of edits (add / union / run), scope operations
(push / pop), and saturation runs, then demands the two snapshot
invariants hold at whatever state the session landed in:

* ``save -> load -> save`` is byte-identical — the format captures all
  serialized state, deterministically;
* the loaded engine is observationally equivalent under either join
  executor — same equalities, same extractions, same explanation lengths
  (derived indexes are rebuilt, not loaded).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.terms import App, V  # noqa: E402
from repro.engine import EGraph  # noqa: E402
from repro.serialize import dumps_document, engine_document, engine_from_document  # noqa: E402

from .conftest import EXECUTORS, forced_executor  # noqa: E402

# One step of a session: (op, payload). Numbers index into a small term
# pool so unions/adds collide often enough to exercise congruence.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("union"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("run"), st.integers(1, 3)),
        st.tuples(st.just("push")),
        st.tuples(st.just("pop")),
    ),
    max_size=14,
)


def _term(a: int, b: int):
    if b == 0:
        return App("Num", a)
    return App("Add", App("Num", a), App("Num", b))


def _session(operations) -> EGraph:
    engine = EGraph()
    engine.declare_sort("Math")
    engine.constructor("Num", ("i64",), "Math")
    engine.constructor("Add", ("Math", "Math"), "Math")
    engine.add_rewrite(App("Add", App("Num", 0), V("x")), V("x"), name="add-zero")
    engine.add_rewrite(
        App("Add", V("x"), V("y")), App("Add", V("y"), V("x")), name="commute"
    )
    depth = 0
    for operation in operations:
        if operation[0] == "add":
            engine.add(_term(operation[1], operation[2]))
        elif operation[0] == "union":
            engine.union(_term(operation[1], 0), _term(operation[2], 0))
        elif operation[0] == "run":
            engine.run(operation[1])
        elif operation[0] == "push":
            engine.push()
            depth += 1
        elif operation[0] == "pop" and depth > 0:
            engine.pop()
            depth -= 1
    engine.rebuild()
    engine._ensure_canonical()
    return engine


@settings(max_examples=25, deadline=None)
@given(operations=steps)
def test_arbitrary_sessions_roundtrip_byte_identical(operations):
    engine = _session(operations)
    first = dumps_document(engine_document(engine))
    loaded = engine_from_document(engine_document(engine))
    second = dumps_document(engine_document(loaded))
    assert first == second


@settings(max_examples=25, deadline=None)
@given(operations=steps)
def test_loaded_engine_observationally_equivalent(operations):
    engine = _session(operations)
    document = engine_document(engine)
    probes = [_term(a, b) for a in range(3) for b in range(2)]
    for name in EXECUTORS:
        with forced_executor(name):
            loaded = engine_from_document(document)
        for lhs in probes:
            assert (loaded.lookup(lhs) is None) == (engine.lookup(lhs) is None)
            for rhs in probes:
                if engine.lookup(lhs) is None or engine.lookup(rhs) is None:
                    continue
                equal = engine.are_equal(lhs, rhs)
                assert loaded.are_equal(lhs, rhs) == equal
                if equal:
                    assert loaded.extract(lhs) == engine.extract(lhs)
                    assert len(loaded.explain(lhs, rhs)) == len(engine.explain(lhs, rhs))
