"""Captures: every restore is byte-identical to what its capture saw.

Every served batch captures its engine (``EGraph.snapshot_state``), and so
does every ``(push)``.  Tables are captured copy-on-write; the union-find,
its proof forest and the proof-node log by their lengths and a position in
one undo journal (``UnionFind.mark``), so a restore undoes recorded writes
instead of reinstalling copies.  Restores are not last-in-first-out: a
failing batch that pops a push made before it restores the older capture,
then its own newer one.

The property drives a session through random batches that commit or fail,
including a failing batch that pops a push made before it and one that
pushes and then fails, and demands:

* after every restore (a rolled-back batch, a ``(pop)``), the engine's
  snapshot bytes equal the bytes recorded when that capture was taken;
* after the sequence, a ``fork`` is byte-identical to a save/load round
  trip.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.serialize.snapshot import (  # noqa: E402
    dumps_document,
    engine_document,
    engine_from_document,
)
from repro.session import ProgramError, SessionManager  # noqa: E402

SETUP = """
(datatype Math (Num i64) (Add Math Math))
(function val (Math) i64 :merge (min old new))
(relation seen (Math))
(rewrite (Add a b) (Add b a))
(rule ((= e (Add (Num a) (Num b)))) ((set (val e) (+ a b)) (seen e)) :name "fold")
(Add (Num 0) (Num 1))
"""

small = st.integers(0, 4)


def _num(n):
    return f"(Num {n})"


def _add(a, b):
    return f"(Add (Num {a}) (Num {b}))"


commands = st.one_of(
    st.builds(_add, small, small),
    st.builds(lambda a, b: f"(union {_num(a)} {_num(b)})", small, small),
    st.builds(lambda a, b: f"(union {_add(a, b)} {_num(a)})", small, small),
    st.builds(lambda n: f"(run {n})", st.integers(1, 3)),
    st.builds(lambda a, v: f"(set (val {_num(a)}) {v})", small, st.integers(0, 9)),
    st.builds(lambda a: f"(delete (val {_num(a)}))", small),
    st.builds(lambda a, b: f"(delete (seen {_add(a, b)}))", small, small),
)

#: ``commit``: a batch that commits; ``push``: a committed batch that opens
#: a client push first; ``pop``: the client's pop; ``scoped``: a committed
#: batch that pushes and pops its own scope; ``fail``: a batch that fails
#: after its commands ran; ``pop-then-fail``: a failing batch that pops a
#: push made before it; ``push-then-fail``: a failing batch that pushes.
KINDS = ("commit", "push", "pop", "scoped", "fail", "pop-then-fail", "push-then-fail")

batches = st.lists(
    st.tuples(st.sampled_from(KINDS), st.lists(commands, max_size=3)),
    max_size=10,
)


def _bytes(engine):
    return dumps_document(engine_document(engine))


@settings(max_examples=40, deadline=None)
@given(batches=batches)
def test_every_restore_is_byte_identical_to_its_capture(batches):
    session = SessionManager().create_session()
    session.run_egg(SETUP)
    engine = session.engine
    pushed = []  # the engine's bytes at each open client push, innermost last
    for kind, cmds in batches:
        body = "\n".join(cmds)
        before = _bytes(engine)
        if kind == "commit":
            session.run_egg(body)
        elif kind == "push":
            session.run_egg("(push)\n" + body)
            pushed.append(before)
        elif kind == "pop":
            if pushed:
                session.run_egg("(pop)")
                assert _bytes(engine) == pushed.pop()
        elif kind == "scoped":
            session.run_egg("(push)\n" + body + "\n(pop)")
            assert _bytes(engine) == before
        else:
            head = ""
            if kind == "pop-then-fail" and pushed:
                head = "(pop)\n"
            elif kind == "push-then-fail":
                head = "(push)\n"
            with pytest.raises(ProgramError):
                session.run_egg(head + body + "\n(no-such-command)")
            assert _bytes(engine) == before
    round_trip = engine_from_document(engine_document(engine))
    assert _bytes(engine.fork()) == _bytes(round_trip)
    # The rolled-back session still runs, and its pushes still pop in order.
    session.run_egg("(run 2)")
    while pushed:
        session.run_egg("(pop)")
        assert _bytes(engine) == pushed.pop()


INFER_SETUP = (
    """
(datatype Type (TInt) (TBool) (TVar String) (TArrow Type Type))
(rule ((= (TArrow a b) (TArrow c d))) ((union a c) (union b d)) :name "decompose-arrow")
"""
    + "\n".join(f'(TArrow (TVar "v{n}") (TInt))' for n in range(100))
)


def _infer_batch(n):
    x, y = f'(TVar "x{n}")', f'(TVar "y{n}")'
    return "\n".join(
        [
            f"(union (TArrow {x} (TInt)) (TArrow (TBool) {y}))",
            "(run 20)",
            f"(check (= {x} (TBool)))",
            f"(extract {y})",
            f"(explain {y} (TInt))",
        ]
    )


def _containers(root):
    """Every builtin container reachable from ``root`` through containers
    and union-find capture records, but not through a record's ``owner``
    (the live union-find it was taken from)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            yield obj
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            yield obj
            stack.extend(obj)
        elif type(obj).__module__ == "repro.core.unionfind":
            stack.extend(
                getattr(obj, slot, None)
                for slot in type(obj).__slots__
                if slot not in ("owner", "__weakref__")
            )


def test_a_capture_copies_nothing_as_long_as_the_union_find():
    session = SessionManager().create_session()
    session.run_egg(INFER_SETUP)
    for n in range(5):
        session.run_egg(_infer_batch(n))
    engine = session.engine
    state = engine.snapshot_state()
    ids = len(engine.uf)
    assert ids > 200
    outside_tables = {name: part for name, part in state.items() if name != "tables"}
    sizes = [len(container) for container in _containers(outside_tables)]
    assert sizes and max(sizes) < ids
