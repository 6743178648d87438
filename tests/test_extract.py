"""Extraction: the kept best-node map against a from-scratch oracle.

``repro.engine.extract`` keeps one best-node map per engine and brings it
up to date from the write log.  These tests hold it to
``tests/reference.py``'s ``extract_reference``, which recomputes every
call from scratch: a hypothesis property over random programs, and named
regressions for the cases the incremental update handles specially (a
best row merged away, declaration-order ties, NaN keys, the points where
the map is dropped).  The last part covers costs below 1, which every
surface rejects, and terms deeper than the recursion limit.
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.terms import App, TermLit, V  # noqa: E402
from repro.core.values import Value, f64, i64  # noqa: E402
from repro.engine import EGraph, EGraphError, ExtractError, MergeError, Rule  # noqa: E402
from repro.engine import extract as extract_module  # noqa: E402
from repro.engine.actions import Delete, Set, run_actions  # noqa: E402
from repro.engine.extract import key_order  # noqa: E402
from repro.frontend import Evaluator  # noqa: E402
from repro.frontend.cli import main as cli_main  # noqa: E402
from repro.serialize import SnapshotFormatError, compute_digest  # noqa: E402
from repro.session import ProgramError, SessionManager  # noqa: E402

from .reference import extract_reference  # noqa: E402
from .test_server import LiveServer  # noqa: E402


def engine_extract(egraph, term):
    """``(cost, term)`` from the engine, or None when nothing is extractable."""
    try:
        return egraph.extract_with_cost(term)
    except ExtractError:
        return None


def assert_every_class_agrees(egraph):
    """Engine and oracle agree on every class that has a node."""
    egraph.rebuild()
    classes = {
        (value.sort, egraph.uf.find(value.data))
        for table in egraph.tables.values()
        if table.decl.out_sort in egraph._eq_sorts
        for _key, value, _ts in table.rows()
    }
    for sort, cls in sorted(classes):
        value = Value(sort, cls)
        assert engine_extract(egraph, value) == extract_reference(egraph, value), (sort, cls)


# -- the differential property -----------------------------------------------


LEAVES = (App("A"), App("B"), App("N", 0), App("N", 1))


def _declare(egraph):
    egraph.declare_sort("E")
    egraph.constructor("A", (), "E")
    egraph.constructor("B", (), "E", cost=2)
    egraph.constructor("N", ("i64",), "E")
    egraph.constructor("F", ("E",), "E")
    egraph.constructor("G", ("E", "E"), "E", cost=2)
    # A callable merge that keeps the newer value: an overwrite moves the
    # row to another e-class, which can raise the old class's cost.
    egraph.function("pick", ("i64",), "E", merge=lambda old, new: new)
    # An E-keyed callable merge that keeps the older value: when a union
    # makes two keys collide, rebuilding drops one row, and the class of the
    # output it discards loses that node.
    egraph.function("keep", ("E",), "E", merge=lambda old, new: old)
    egraph.function("hide", ("E",), "E", unextractable=True)
    egraph.relation("kill", ("i64",))
    x, y, k = V("x"), V("y"), V("k")
    egraph.add_rewrite(App("F", App("F", x)), x, name="ff")
    egraph.add_rewrite(App("G", x, y), App("G", y, x), name="comm")
    egraph.add_rewrite(App("hide", x), App("F", x), name="unhide")
    # Running this ruleset matches nothing but advances the timestamp, so
    # later extractions start from a watermark past earlier rows.
    egraph.add_rule(Rule(facts=[App("kill", -1)], actions=[], name="tick", ruleset="tick"))
    # Every program starts with keep rows over four leaves, so a union of
    # two of them makes keys collide.
    for leaf in LEAVES:
        egraph.add(App("F", App("keep", leaf)))
    # The compiled delete path.
    egraph.add_rule(
        Rule(
            facts=[App("kill", k), App("N", k)],
            actions=[Delete(App("N", k))],
            name="kill-n",
        )
    )


def _terms():
    leaves = st.one_of(
        st.just(App("A")),
        st.just(App("B")),
        st.integers(0, 3).map(lambda n: App("N", n)),
        st.integers(0, 2).map(lambda n: App("pick", n)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(lambda t: App("F", t)),
            inner.map(lambda t: App("hide", t)),
            inner.map(lambda t: App("keep", t)),
            st.tuples(inner, inner).map(lambda pair: App("G", *pair)),
        ),
        max_leaves=4,
    )


TERMS = _terms()
EDITS = st.one_of(
    st.tuples(st.just("add"), TERMS),
    st.tuples(st.just("union"), TERMS, TERMS),
    st.tuples(st.just("union"), st.sampled_from(LEAVES), st.sampled_from(LEAVES)),
    st.tuples(st.just("run"), st.integers(1, 2)),
    st.tuples(st.just("delete"), TERMS),
    st.tuples(st.just("kill"), st.integers(0, 3)),
    st.tuples(st.just("set"), st.integers(0, 2), TERMS),
    st.tuples(st.just("tick")),
)
STEPS = st.one_of(
    EDITS,
    st.tuples(st.just("extract"), TERMS),
    st.tuples(st.just("push")),
    st.tuples(st.just("pop")),
    st.tuples(st.just("fork")),
    st.tuples(st.just("rollback"), st.lists(EDITS, min_size=1, max_size=3)),
)


def _edit(egraph, step):
    kind = step[0]
    if kind == "add":
        egraph.add(step[1])
    elif kind == "union":
        egraph.union(step[1], step[2])
    elif kind == "run":
        egraph.run(step[1])
    elif kind == "delete":
        run_actions(egraph, [Delete(step[1])], {})
    elif kind == "kill":
        egraph.add(App("kill", step[1]))
        egraph.run(1)
    elif kind == "set":
        run_actions(egraph, [Set(App("pick", step[1]), step[2])], {})
    elif kind == "tick":
        egraph.run(1, ruleset="tick")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(STEPS, max_size=14))
def test_kept_map_matches_a_from_scratch_oracle(steps):
    egraph = EGraph()
    _declare(egraph)
    # Build the map before the first step, so every edit meets a kept map.
    assert_every_class_agrees(egraph)
    depth = 0
    for step in steps:
        kind = step[0]
        if kind == "extract":
            egraph.rebuild()
            got = engine_extract(egraph, step[1])
            assert got == extract_reference(egraph, egraph.lookup(step[1]))
            assert_every_class_agrees(egraph)
        elif kind == "push":
            egraph.push()
            depth += 1
        elif kind == "pop":
            if depth:
                egraph.pop()
                depth -= 1
        elif kind == "fork":
            egraph = egraph.fork()
            depth = 0
        elif kind == "rollback":
            captured = egraph.snapshot_state()
            for edit in step[1]:
                _edit(egraph, edit)
            egraph.restore_state(captured)
        else:
            _edit(egraph, step)
    assert_every_class_agrees(egraph)


# -- named regressions -------------------------------------------------------


def keep_old(old, new):
    return old


def _leaf_classes():
    egraph = EGraph()
    egraph.declare_sort("E")
    egraph.constructor("A", (), "E")
    egraph.constructor("N", ("i64",), "E")
    egraph.constructor("F", ("E",), "E")
    egraph.constructor("G", ("E", "E"), "E")
    return egraph


def test_a_best_row_merged_away_is_replaced_by_a_rescan():
    # F(N 0), F(N 5) and F(N 1) tie at cost 2 in one class, and F(N 0),
    # whose child has the smallest id, is its best node.  Merging N 0 into
    # N 1 makes rebuilding fold F(N 0) into the existing F(N 1) row, which
    # it does not restamp: the stored best row is gone.
    egraph = _leaf_classes()
    low, mid, high = (App("F", App("N", n)) for n in (0, 5, 1))
    egraph.union(low, mid)
    egraph.union(low, high)
    top = App("G", low, App("A"))
    egraph.run(1)  # no rules: only the timestamp advances
    assert egraph.extract_with_cost(top) == (4, App("G", low, App("A")))
    egraph.run(1)
    egraph.union(App("N", 1), App("N", 0))
    egraph.rebuild()
    cls = egraph.uf.find(egraph.lookup(low).data)
    _cost, _rank, func, key = egraph._extraction.best[cls]
    assert key not in egraph.tables[func].data
    # The live nodes F(N 5) and F(N 1) tie; N 5 has the smaller id.
    expected = (4, App("G", mid, App("A")))
    assert egraph.extract_with_cost(top) == expected
    assert extract_reference(egraph, egraph.lookup(top)) == expected


def test_a_cheaper_node_in_a_class_with_a_merged_away_best_row_reaches_parents():
    egraph = _leaf_classes()
    low, mid, high = (App("F", App("N", n)) for n in (0, 5, 1))
    egraph.union(low, mid)
    egraph.union(low, high)
    top = App("G", low, App("N", 7))
    egraph.run(1)  # no rules: only the timestamp advances
    assert egraph.extract_with_cost(top)[0] == 4
    egraph.run(1)
    egraph.union(App("N", 1), App("N", 0))
    egraph.union(high, App("A"))  # the class's cost falls from 2 to 1
    egraph.rebuild()
    expected = (3, App("G", App("A"), App("N", 7)))
    assert egraph.extract_with_cost(top) == expected
    assert extract_reference(egraph, egraph.lookup(top)) == expected


@pytest.mark.parametrize("merge", ["old", "error"])
@pytest.mark.parametrize("other_node", [False, True])
def test_a_merge_on_a_rebuild_collision_drops_the_map(merge, other_node):
    # keep (A) and keep (B) collide once A and B merge.  Rebuilding removes
    # keep (B)'s row before it resolves the collision, so keep (B)'s class
    # loses the node that was its best: :merge old keeps keep (A)'s value,
    # and merge="error" raises.
    egraph = EGraph()
    egraph.declare_sort("E")
    egraph.constructor("A", (), "E")
    egraph.constructor("B", (), "E")
    egraph.constructor("G", ("E",), "E")
    egraph.function("keep", ("E",), "E", merge=keep_old if merge == "old" else merge)
    x = egraph.add(App("G", App("keep", App("A"))))
    y = egraph.add(App("G", App("keep", App("B"))))
    if other_node:
        egraph.union(App("keep", App("B")), App("G", App("G", App("A"))))
    assert egraph.extract_with_cost(y) == (3, App("G", App("keep", App("B"))))
    egraph.union(App("A"), App("B"))
    if merge == "old":
        egraph.rebuild()
    else:
        with pytest.raises(MergeError, match="merge conflict on keep"):
            egraph.rebuild()
    assert egraph._extraction is None
    expected = (4, App("G", App("G", App("G", App("A"))))) if other_node else None
    assert engine_extract(egraph, y) == extract_reference(egraph, y) == expected
    assert engine_extract(egraph, x) == (3, App("G", App("keep", App("A"))))


def test_declaration_order_breaks_cost_ties():
    lines = Evaluator().run_program(
        '(datatype Type (TInt) (TBool) (TVar String) (TArrow Type Type :cost 2))\n'
        '(let v (TVar "a"))\n'
        "(union v (TInt))\n"
        '(union (TVar "c") (TVar "b"))\n'
        "(extract v)\n"
        '(extract (TVar "c"))\n'
        '(extract (TArrow v (TVar "c")))\n'
        "(datatype Num (Big i64) (Small i64))\n"
        "(union (Small 1) (Big 5))\n"
        "(extract (Small 1))"
    )
    # TVar "a" was added first, yet TInt, declared first, wins the tie.  Two
    # TVars share a table and fall to the smaller key.  Big beats Small on
    # declaration order although its key is larger.
    assert lines == [
        "extract: (TInt) (cost 1)",
        'extract: (TVar "b") (cost 1)',
        'extract: (TArrow (TInt) (TVar "b")) (cost 4)',
        "extract: (Big 5) (cost 1)",
    ]


def test_nan_keys_have_a_fixed_place_in_the_tie_break():
    nan, inf = float("nan"), float("inf")
    assert key_order((f64(inf),)) < key_order((f64(nan),))
    assert key_order((f64(nan),)) == key_order((f64(nan),))
    for first, second in ((nan, inf), (inf, nan), (nan, -1.5), (-1.5, nan)):
        egraph = EGraph()
        egraph.declare_sort("E")
        egraph.constructor("Num", ("f64",), "E")
        egraph.union(App("Num", first), App("Num", second))
        cost, term = egraph.extract_with_cost(App("Num", first))
        other = second if math.isnan(first) else first
        assert (cost, term) == (1, App("Num", TermLit(f64(other))))
        assert extract_reference(egraph, egraph.lookup(App("Num", first))) == (cost, term)


def _counting_full_passes(monkeypatch):
    calls = []
    full_pass = extract_module.full_pass

    def counted(work):
        calls.append(1)
        full_pass(work)

    monkeypatch.setattr(extract_module, "full_pass", counted)
    return calls


def test_the_map_is_kept_until_a_cost_can_rise(monkeypatch, tmp_path):
    calls = _counting_full_passes(monkeypatch)
    egraph = _leaf_classes()
    egraph.function("shortest", ("i64",), "i64", merge="min")
    egraph.add_rewrite(App("F", App("F", V("x"))), V("x"), name="ff")
    probe = App("F", App("F", App("N", 1)))

    def recomputes(engine, step):
        before = len(calls)
        step()
        engine.extract(probe)
        engine.extract(probe)
        return len(calls) - before

    assert recomputes(egraph, lambda: None) == 1  # the first extraction
    for step in (
        lambda: egraph.union(App("N", 2), App("A")),
        lambda: egraph.run(3),
        egraph.push,
        egraph.snapshot_state,  # the capture of a batch that commits
        lambda: run_actions(egraph, [Set(App("shortest", 1), TermLit(i64(5)))], {}),
        lambda: run_actions(egraph, [Set(App("shortest", 1), TermLit(i64(3)))], {}),
    ):
        assert recomputes(egraph, step) == 0
    captured = egraph.snapshot_state()
    egraph.add(App("N", 9))
    assert recomputes(egraph, lambda: egraph.restore_state(captured)) == 1
    assert recomputes(egraph, egraph.pop) == 1
    assert recomputes(egraph, lambda: run_actions(egraph, [Delete(App("N", 2))], {})) == 1
    path = str(tmp_path / "engine.json")
    egraph.save(path)
    assert recomputes(egraph, lambda: egraph.load(path)) == 1
    child = egraph.fork()
    assert recomputes(child, lambda: None) == 1
    assert recomputes(egraph, lambda: None) == 0  # the parent keeps its map
    # A callable merge on an eq-sorted output: a new row keeps the map, a
    # conflict the merge resolves drops it.
    child.function("pick", ("i64",), "E", merge=lambda old, new: new)
    assert recomputes(child, lambda: child.add(App("pick", 0))) == 0
    overwrite = [Set(App("pick", 0), App("N", 4))]
    assert recomputes(child, lambda: run_actions(child, overwrite, {})) == 1


def test_a_committed_served_batch_reuses_the_map_and_a_failed_one_drops_it(monkeypatch):
    calls = _counting_full_passes(monkeypatch)
    session = SessionManager().create_session()
    session.run_egg('(datatype T (I) (V String))\n(union (V "a") (I))\n(extract (V "a"))')
    assert len(calls) == 1
    assert session.run_egg('(union (V "b") (I))\n(extract (V "b"))') == [
        "extract: (I) (cost 1)"
    ]
    assert len(calls) == 1
    with pytest.raises(ProgramError):
        session.run_egg('(union (V "c") (I))\n(extract (V "nope" 1))')
    session.run_egg('(extract (V "b"))')
    assert len(calls) == 2


# -- costs below 1 -----------------------------------------------------------

NEGATIVE_COST = "(datatype N (Z) (S N :cost -1))\n(union (S (Z)) (Z))\n(extract (Z))"
ZERO_COST = "(datatype M (H M :cost 0) (A) (G M :cost 0))\n(union (H (G (A))) (A))\n(extract (A))"


@pytest.mark.parametrize("cost", [0, -1, True, 1.5])
def test_the_engine_rejects_costs_below_one(cost):
    egraph = EGraph()
    egraph.declare_sort("E")
    with pytest.raises(EGraphError, match="'f': cost must be an integer >= 1"):
        egraph.function("f", (), "E", cost=cost)
    with pytest.raises(EGraphError, match="'g': cost must be an integer >= 1"):
        egraph.constructor("g", ("E",), "E", cost=cost)
    assert "f" not in egraph.decls and "g" not in egraph.decls


def test_the_dsl_rejects_a_cost_below_one():
    import repro
    from repro.dsl import DslError

    eg = repro.EGraph()
    sort = eg.sort("S")
    with pytest.raises(DslError, match="'A': cost must be an integer >= 1"):
        eg.constructor("A", (), sort, cost=0)


@pytest.mark.parametrize("program", [NEGATIVE_COST, ZERO_COST])
def test_the_cli_reports_a_cost_below_one_with_its_location(program, tmp_path, capsys):
    path = tmp_path / "cost.egg"
    path.write_text(program)
    assert cli_main([str(path)]) == 1
    error = capsys.readouterr().err
    assert f"{path}:1:2:" in error and "cost must be an integer >= 1" in error


def test_a_served_batch_with_a_cost_below_one_answers_422_and_rolls_back():
    live = LiveServer()
    try:
        _, body = live.request("POST", "/sessions", {})
        sid = body["session"]["id"]
        for program in (NEGATIVE_COST, ZERO_COST):
            status, body = live.request("POST", f"/sessions/{sid}/egg", {"program": program})
            assert status == 422 and "cost must be an integer >= 1" in body["error"]
        constructor = {"op": "constructor", "name": "Z", "args": [], "out": "N", "cost": 0}
        status, body = live.request(
            "POST", f"/sessions/{sid}/program", {"ops": [{"op": "sort", "name": "N"}, constructor]}
        )
        assert status == 422 and "cost must be an integer >= 1" in body["error"]
        # Nothing was declared: the same names are free.
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(datatype N (Z))\n(datatype M (A))"}
        )
        assert status == 200
    finally:
        live.stop()


def test_a_snapshot_declaring_a_cost_below_one_fails_to_load(tmp_path):
    egraph = _leaf_classes()
    path = tmp_path / "engine.json"
    egraph.save(str(path))
    document = json.loads(path.read_text())
    for entry in document["state"]["functions"]:
        if entry["name"] == "F":
            entry["cost"] = 0
    document["digest"] = compute_digest(document)
    path.write_text(json.dumps(document))
    with pytest.raises(SnapshotFormatError, match="'F': cost must be an integer >= 1"):
        EGraph.from_snapshot(str(path))


# -- terms deeper than the recursion limit -----------------------------------

CHAIN = 3000
CHAIN_PROGRAM = f"""
(datatype N (Z) (S N))
(function num (i64) N :unextractable)
(union (num 0) (Z))
(rule ((= n (num k)) (< k {CHAIN})) ((union (num (+ k 1)) (S n))) :name "succ")
(run {CHAIN})
(extract (num {CHAIN}))
"""
CHAIN_LINE = f"extract: {'(S ' * CHAIN}(Z){')' * CHAIN} (cost {CHAIN + 1})"


def test_a_deep_term_extracts_from_the_cli(tmp_path, capsys):
    path = tmp_path / "chain.egg"
    path.write_text(CHAIN_PROGRAM)
    assert cli_main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == CHAIN_LINE


def test_a_deep_term_extracts_over_http():
    live = LiveServer()
    try:
        _, body = live.request("POST", "/sessions", {})
        sid = body["session"]["id"]
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": CHAIN_PROGRAM}
        )
        assert status == 200 and body["lines"][-1] == CHAIN_LINE
    finally:
        live.stop()


def test_a_deep_program_extract_answers_a_typed_422_over_http():
    """The JSON ``extract`` op carries the term's encoded form, which JSON
    cannot nest 3,000 levels deep: the op answers 422 naming the depth and
    rolls the batch back, and a shallow extract answers as before."""
    setup = CHAIN_PROGRAM.rsplit("(extract", 1)[0]
    live = LiveServer()
    try:
        _, body = live.request("POST", "/sessions", {})
        sid = body["session"]["id"]
        status, _body = live.request("POST", f"/sessions/{sid}/egg", {"program": setup})
        assert status == 200
        deep = {"op": "extract", "term": ["a", "num", [["l", ["i64", CHAIN]]]]}
        status, body = live.request(
            "POST",
            f"/sessions/{sid}/program",
            {"ops": [{"op": "add", "term": ["a", "num", [["l", ["i64", 7000]]]]}, deep]},
        )
        assert status == 422 and body["ok"] is False
        assert f"op 1 (extract): the extracted term is {CHAIN + 1} levels deep" in body["error"]
        # Rolled back: the add before the failing op left nothing behind.
        check = {"op": "check", "facts": [["a", "num", [["l", ["i64", 7000]]]]]}
        shallow = {"op": "extract", "term": ["a", "num", [["l", ["i64", 2]]]]}
        status, body = live.request(
            "POST", f"/sessions/{sid}/program", {"ops": [check, shallow]}
        )
        assert status == 200
        assert body["results"] == [
            {"ok": False, "count": 0},
            {
                "cost": 3,
                "term": "(S (S (Z)))",
                "encoded": ["a", "S", [["a", "S", [["a", "Z", []]]]]],
            },
        ]
    finally:
        live.stop()
