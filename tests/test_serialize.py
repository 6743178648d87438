"""Snapshot subsystem tests: round trips, warm starts, surfaces, errors.

The load-bearing invariant is byte identity: ``save -> load -> save``
must reproduce the exact file, for every golden program and bench
workload, because byte identity implies the snapshot captured *all*
serialized state (any dropped or reordered field shows up as a diff).
Semantic parity rides on top: a loaded engine must answer
extract/check/explain exactly like the original, under either join
executor, and a saturated snapshot must stay saturated when re-run
(warm start skips the work the snapshot already did).
"""

import json
import pathlib
from fractions import Fraction

import pytest

import repro
from repro.bench.replay import expected_block, replay_snapshot
from repro.bench.workloads import default_workloads
from repro.core.terms import App, V
from repro.core.values import Value, from_python
from repro.dsl import EGraph as DslEGraph
from repro.dsl import i64, var
from repro.dsl.errors import DslError
from repro.engine import EGraph, Expr, Rule
from repro.engine.schedule import Run, Saturate, Seq
from repro.frontend import Evaluator
from repro.frontend.cli import main as cli_main
from repro.serialize import (
    SCHEMA,
    SnapshotError,
    SnapshotFormatError,
    compute_digest,
    dumps_document,
    engine_document,
    load_engine,
    read_document,
    save_engine,
)
from repro.serialize.encode import (
    decode_schedule,
    decode_value,
    encode_schedule,
    encode_value,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*.egg"))


def roundtrip_bytes(engine: EGraph, tmp_path, **kwargs) -> "tuple[EGraph, str, str]":
    """save -> load -> save; returns (loaded_engine, bytes1, bytes2)."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_engine(engine, str(first), **kwargs)
    loaded, _ = load_engine(str(first))
    save_engine(loaded, str(second), **kwargs)
    return loaded, first.read_text(), second.read_text()


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

VALUES = [
    from_python(0),
    from_python(-(2**40)),
    from_python(True),
    from_python(False),
    from_python("hello \"quoted\" \n unicode ✓"),
    from_python(1.5),
    from_python(-0.0),
    from_python(float("nan")),
    from_python(float("inf")),
    from_python(float("-inf")),
    from_python(Fraction(3, 7)),
    Value("Unit", ()),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{v.sort}:{v.data!r}")
def test_value_roundtrip(value):
    encoded = encode_value(value)
    json.dumps(encoded)  # must be plain JSON
    decoded = decode_value(encoded)
    assert decoded.sort == value.sort
    if isinstance(value.data, float) and value.data != value.data:
        assert decoded.data != decoded.data  # NaN round-trips as NaN
    else:
        assert decoded == value


def test_value_negative_zero_keeps_sign():
    decoded = decode_value(encode_value(from_python(-0.0)))
    # The engine canonicalizes -0.0; whatever it stores must survive.
    assert str(decoded.data) == str(from_python(-0.0).data)


def test_bool_distinct_from_int():
    # JSON bool is an int subclass; decode must not confuse the two.
    assert decode_value(encode_value(from_python(True))).sort == "bool"
    assert decode_value(encode_value(from_python(1))).sort == "i64"


def test_schedule_roundtrip():
    schedule = Seq((Run(3, "a"), Saturate((Run(1), Run(2, "b")))))
    assert decode_schedule(encode_schedule(schedule)) == schedule


# ---------------------------------------------------------------------------
# Engine round trips: byte identity and semantic parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_golden_roundtrip_byte_identical(path, tmp_path):
    evaluator = Evaluator()
    evaluator.run_program(path.read_text(), str(path))
    evaluator.egraph._ensure_canonical()
    loaded, first, second = roundtrip_bytes(evaluator.egraph, tmp_path)
    assert first == second
    assert loaded.stats() == evaluator.egraph.stats()


@pytest.mark.parametrize(
    "workload",
    [w for w in default_workloads(quick=True)],
    ids=lambda w: w.name,
)
def test_workload_roundtrip_byte_identical(workload, tmp_path):
    engine = EGraph()
    workload.setup(engine)
    workload.run(engine)
    engine._ensure_canonical()
    loaded, first, second = roundtrip_bytes(engine, tmp_path)
    assert first == second
    assert loaded.stats() == engine.stats()


def test_loaded_engine_parity_across_strategies(executor, tmp_path):
    engine = EGraph()
    engine.declare_sort("Math")
    engine.constructor("Num", ("i64",), "Math")
    engine.constructor("Add", ("Math", "Math"), "Math")
    engine.add_rewrite(App("Add", App("Num", 0), V("x")), V("x"), name="add-zero")
    engine.add(App("Add", App("Num", 0), App("Num", 7)))
    engine.run(10)
    path = tmp_path / "math.json"
    save_engine(engine, str(path))
    loaded, _ = load_engine(str(path))
    lhs = App("Add", App("Num", 0), App("Num", 7))
    rhs = App("Num", 7)
    assert loaded.check_equal(lhs, rhs) == engine.check_equal(lhs, rhs) is True
    assert loaded.extract(lhs) == engine.extract(lhs)
    original = [str(step) for step in engine.explain(lhs, rhs)]
    replayed = [str(step) for step in loaded.explain(lhs, rhs)]
    assert replayed == original
    # Re-running a saturated snapshot is a no-op under either executor.
    report = loaded.run(10)
    assert report.saturated and not report.updated


def test_snapshots_recording_any_strategy_load_and_answer_identically(tmp_path):
    # Older builds wrote the engine-wide join strategy into meta.strategy
    # ("generic-adhoc" included, before it left the engine).  Whatever it
    # says, the loader ignores it: each rule picks its join from its body.
    engine = EGraph()
    engine.declare_sort("Math")
    engine.constructor("Num", ("i64",), "Math")
    engine.constructor("Add", ("Math", "Math"), "Math")
    engine.add_rewrite(App("Add", App("Num", 0), V("x")), V("x"), name="add-zero")
    engine.add(App("Add", App("Num", 0), App("Num", 7)))
    engine.run(10)
    document = save_engine(engine, str(tmp_path / "current.json"))
    assert "strategy" not in document["meta"]
    term = App("Add", App("Num", 0), App("Num", 7))

    def answers(loaded):
        return (
            loaded.check(App("Add", V("a"), V("b"))),
            loaded.check_equal(term, App("Num", 7)),
            loaded.extract(term),
            [str(step) for step in loaded.explain(term, App("Num", 7))],
            loaded.run(10).saturated,
            engine_document(loaded)["state"],
        )

    expected = answers(load_engine(str(tmp_path / "current.json"))[0])
    assert expected[2] == App("Num", 7) and expected[4]
    for recorded in ("indexed", "generic", "generic-adhoc"):
        document["meta"]["strategy"] = recorded
        document["digest"] = compute_digest(document)
        legacy_path = tmp_path / f"{recorded}.json"
        legacy_path.write_text(dumps_document(document))
        legacy, _ = load_engine(str(legacy_path))
        assert answers(legacy) == expected, recorded


def test_warm_start_skips_saturation(tmp_path):
    workload = [w for w in default_workloads(quick=True) if w.name == "tc_chain"][0]
    engine = EGraph()
    workload.setup(engine)
    cold = workload.run(engine)
    assert cold.iterations > 1 and cold.saturated
    path = tmp_path / "tc.json"
    save_engine(engine, str(path))
    loaded, _ = load_engine(str(path))
    warm = loaded.run(cold.iterations + 10)
    assert warm.saturated
    assert warm.iterations == 1  # one confirming pass, no re-derivation
    assert warm.num_matches == 0


def test_proofs_survive_reload(tmp_path):
    engine = EGraph()
    engine.declare_sort("M")
    engine.constructor("f", ("M",), "M")
    engine.constructor("a", (), "M")
    engine.constructor("b", (), "M")
    engine.add(App("f", App("a")))
    engine.add(App("f", App("b")))
    engine.union(App("a"), App("b"))
    engine.rebuild()
    path = tmp_path / "cong.json"
    save_engine(engine, str(path))
    loaded, _ = load_engine(str(path))
    steps = [str(step) for step in loaded.explain(App("f", App("a")), App("f", App("b")))]
    assert steps == [str(step) for step in engine.explain(App("f", App("a")), App("f", App("b")))]
    assert any("congruence" in step for step in steps)


def test_proofless_engine_roundtrip(tmp_path):
    engine = EGraph(proofs=False)
    engine.declare_sort("M")
    engine.constructor("a", (), "M")
    engine.constructor("b", (), "M")
    engine.union(App("a"), App("b"))
    loaded, first, second = roundtrip_bytes(engine, tmp_path)
    assert first == second
    assert loaded.uf.proofs is None
    assert loaded.are_equal(App("a"), App("b"))


def test_push_pop_state_not_serialized(tmp_path):
    engine = EGraph()
    engine.declare_sort("M")
    engine.constructor("a", (), "M")
    engine.push()
    engine.constructor("b", (), "M")
    path = tmp_path / "pushed.json"
    save_engine(engine, str(path))
    loaded, _ = load_engine(str(path))
    # The snapshot captures the live state; the undo stack does not travel.
    assert "b" in loaded.decls
    assert loaded._snapshots == []


# ---------------------------------------------------------------------------
# Merge and default serialization
# ---------------------------------------------------------------------------


def test_primitive_merge_roundtrip(tmp_path):
    engine = EGraph()
    engine.function("best", ("i64",), "i64", merge="max")
    engine.tables["best"].put((from_python(1),), from_python(5), 0)
    loaded, first, second = roundtrip_bytes(engine, tmp_path)
    assert first == second
    # The merge function still takes the max after reload.
    fn = loaded.merge_fn(loaded.decls["best"])
    assert fn(from_python(3), from_python(9)) == from_python(9)


def test_term_merge_roundtrip(tmp_path):
    evaluator = Evaluator()
    evaluator.run_program(
        "(function lo (i64) i64 :merge (min old new))\n"
        "(set (lo 0) 10)\n"
        "(set (lo 0) 4)\n"
        "(set (lo 0) 7)\n",
        "<test>",
    )
    engine = evaluator.egraph
    loaded, first, second = roundtrip_bytes(engine, tmp_path)
    assert first == second
    fn = loaded.merge_fn(loaded.decls["lo"])
    assert fn(from_python(9), from_python(2)) == from_python(2)


def test_callable_merge_rejected(tmp_path):
    engine = EGraph()
    engine.function("f", ("i64",), "i64", merge=lambda old, new: old, decl_site="here:1")
    with pytest.raises(SnapshotError, match="here:1"):
        save_engine(engine, str(tmp_path / "bad.json"))


def test_callable_default_rejected(tmp_path):
    engine = EGraph()
    engine.function("f", ("i64",), "i64", default=lambda: from_python(0))
    with pytest.raises(SnapshotError, match="default"):
        save_engine(engine, str(tmp_path / "bad.json"))


def test_value_default_roundtrip(tmp_path):
    engine = EGraph()
    engine.function("f", ("i64",), "i64", default=from_python(42))
    loaded, first, second = roundtrip_bytes(engine, tmp_path)
    assert first == second
    assert loaded.decls["f"].default == from_python(42)


# ---------------------------------------------------------------------------
# Format validation
# ---------------------------------------------------------------------------


def _small_document(tmp_path) -> dict:
    engine = EGraph()
    engine.declare_sort("M")
    engine.constructor("a", (), "M")
    return save_engine(engine, str(tmp_path / "doc.json"))


def test_digest_tamper_detected(tmp_path):
    document = _small_document(tmp_path)
    document["state"]["timestamp"] = 999
    corrupted = tmp_path / "tampered.json"
    corrupted.write_text(json.dumps(document))
    with pytest.raises(SnapshotFormatError, match="digest"):
        read_document(str(corrupted))


def test_unknown_schema_rejected(tmp_path):
    document = _small_document(tmp_path)
    document["schema"] = "repro.snapshot/v999"
    document["digest"] = compute_digest(document)
    path = tmp_path / "future.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SnapshotFormatError, match="v999"):
        read_document(str(path))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SnapshotFormatError):
        read_document(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_document(str(tmp_path / "missing.json"))


def test_unknown_coercion_rejected(tmp_path):
    document = _small_document(tmp_path)
    document["state"]["coercions"].append(["i64", "NoSuchSort"])
    document["digest"] = compute_digest(document)
    path = tmp_path / "coerce.json"
    path.write_text(dumps_document(document))
    with pytest.raises(SnapshotError, match="NoSuchSort"):
        load_engine(str(path))


def test_meta_records_version_and_no_strategy(tmp_path):
    document = _small_document(tmp_path)
    assert document["schema"] == SCHEMA
    assert repro.__version__ in document["meta"]["generator"]
    assert "strategy" not in document["meta"]
    assert document["meta"]["proofs"] is True


# ---------------------------------------------------------------------------
# Frontend surface
# ---------------------------------------------------------------------------

PROGRAM = """
(datatype Math (Num i64) (Add Math Math))
(rewrite (Add (Num 0) x) x)
(let one (Num 1))
(union (Add (Num 0) (Num 3)) (Num 3))
(run 5)
"""


def test_egg_save_load_restores_globals(tmp_path):
    snap = tmp_path / "session.json"
    out = []
    Evaluator(sink=out.append).run_program(PROGRAM + f'\n(save "{snap}")', "<a>")
    assert f"save: {snap}" in out
    lines = []
    Evaluator(sink=lines.append).run_program(
        f'(load "{snap}")\n(check (= (Add (Num 0) (Num 3)) (Num 3)))\n(extract one)',
        "<b>",
    )
    assert any(line.startswith("check: ok") for line in lines)
    assert any("(Num 1)" in line for line in lines)


def test_egg_load_missing_file_is_eval_error(tmp_path):
    from repro.frontend.evaluator import EvalError

    with pytest.raises(EvalError, match="load failed"):
        Evaluator().run_program(f'(load "{tmp_path}/absent.json")', "<t>")


def test_cli_save_load_roundtrip(tmp_path, capsys):
    program = tmp_path / "p.egg"
    program.write_text(PROGRAM)
    snap = tmp_path / "s.json"
    assert cli_main([str(program), "--save", str(snap)]) == 0
    warm = tmp_path / "w.egg"
    warm.write_text("(check (= (Add (Num 0) (Num 3)) (Num 3)))\n(run 5)\n")
    capsys.readouterr()
    assert cli_main([str(warm), "--load", str(snap)]) == 0
    output = capsys.readouterr().out
    assert "check: ok" in output
    assert "saturated" in output


def test_cli_missing_snapshot_clean_error(tmp_path, capsys):
    program = tmp_path / "p.egg"
    program.write_text("(run 1)")
    missing = tmp_path / "nope.json"
    assert cli_main([str(program), "--load", str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err
    assert "error:" in err
    assert "Traceback" not in err


def test_cli_missing_program_clean_error(tmp_path, capsys):
    missing = tmp_path / "absent.egg"
    assert cli_main([str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "error:" in err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {repro.__version__}" in capsys.readouterr().out


def test_cli_snapshot_migration_no_files(tmp_path, capsys):
    program = tmp_path / "p.egg"
    program.write_text(PROGRAM)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli_main([str(program), "--save", str(first)]) == 0
    # --load/--save with no files: a pure round-trip/migration pass.
    assert cli_main(["--load", str(first), "--save", str(second)]) == 0
    assert first.read_text() == second.read_text()


# ---------------------------------------------------------------------------
# Typed DSL surface
# ---------------------------------------------------------------------------


def _dsl_session():
    eg = DslEGraph()
    Math = eg.sort("Math")
    Num = eg.constructor("Num", ["i64"], Math)
    Add = eg.constructor("Add", [Math, Math], Math, op="+")
    x = var("x", Math)
    eg.register((Num(0) + x).to(x, name="add-zero"))
    eg.add(Num(0) + Num(7))
    eg.run(10)
    return eg, Num, Add


def test_dsl_from_snapshot_rehydrates_handles(tmp_path):
    eg, Num, Add = _dsl_session()
    path = tmp_path / "dsl.json"
    eg.save(str(path))
    loaded = DslEGraph.from_snapshot(str(path))
    Num2 = loaded._functions["Num"]
    assert loaded._sorts["Math"].decl_site == eg._sorts["Math"].decl_site
    # Operator bindings travel: + still builds Add applications.
    expr = Num2(0) + Num2(7)
    assert loaded.are_equal(expr, Num2(7))
    assert str(loaded.extract(Num2(7))) == str(eg.extract(Num(7)))
    assert len(loaded.explain(expr, Num2(7))) == len(eg.explain(Num(0) + Num(7), Num(7)))
    assert loaded._rulesets[""].rule_names == ["add-zero"]


def test_dsl_inplace_load_replaces_state(tmp_path):
    eg, _, _ = _dsl_session()
    path = tmp_path / "dsl.json"
    eg.save(str(path))
    other = DslEGraph()
    other.sort("Unrelated")
    other.load(str(path))
    assert "Unrelated" not in other._sorts
    assert set(other._functions) == {"Num", "Add"}


def test_engine_inplace_load_runs_rules_on_the_loading_engine(tmp_path):
    # Loading compiles the snapshot's rules once to check them; a run after
    # an in-place load must count its updates on the engine it loaded into,
    # or it stops after one iteration as if saturated.
    def closure_engine():
        engine = EGraph()
        engine.relation("edge", ("i64", "i64"))
        engine.relation("path", ("i64", "i64"))
        engine.add_rule(
            Rule(name="base", facts=[App("edge", V("x"), V("y"))],
                 actions=[Expr(App("path", V("x"), V("y")))])
        )
        engine.add_rule(
            Rule(name="step", facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
                 actions=[Expr(App("path", V("x"), V("z")))])
        )
        return engine

    saved = closure_engine()
    saved.add(App("edge", 1, 2))
    path = tmp_path / "closure.json"
    save_engine(saved, str(path))
    engine = closure_engine()
    engine.load(str(path))
    engine.add(App("edge", 2, 3))
    engine.add(App("edge", 3, 4))
    report = engine.run(10)
    assert report.saturated and report.iterations > 1
    assert engine.lookup(App("path", 1, 4)) is not None


def test_dsl_roundtrip_byte_identical(tmp_path):
    eg, _, _ = _dsl_session()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    eg.save(str(first))
    DslEGraph.from_snapshot(str(first)).save(str(second))
    assert first.read_text() == second.read_text()


def test_dsl_snapshot_error_maps_to_dsl_error(tmp_path):
    eg = DslEGraph()
    eg.function("f", ["i64"], "i64", merge=lambda old, new: old)
    with pytest.raises(DslError):
        eg.save(str(tmp_path / "bad.json"))


def test_dsl_term_merge_saves_and_merges_after_load(tmp_path):
    # merge= takes a term over ``old``/``new``; a DSL expression lowers to
    # one, is kept as declaration data and saves as an expression.
    eg = DslEGraph()
    total = eg.function("total", [i64], i64, merge=var("old", i64) + var("new", i64))
    assert eg.engine.decls["total"].merge == App("+", V("old"), V("new"))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    eg.save(str(first))
    loaded = DslEGraph.from_snapshot(str(first))
    loaded.save(str(second))
    assert first.read_text() == second.read_text()
    fn = loaded.engine.merge_fn(loaded.engine.decls["total"])
    assert fn(from_python(3), from_python(4)) == from_python(7)
    assert loaded.function_handle("total").arity == total.arity


def test_dsl_missing_snapshot_propagates_oserror(tmp_path):
    with pytest.raises(OSError):
        DslEGraph.from_snapshot(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# Bench replay
# ---------------------------------------------------------------------------


def test_replay_snapshot_confirms_expected(tmp_path):
    workload = [w for w in default_workloads(quick=True) if w.name == "tc_chain"][0]
    engine = EGraph()
    workload.setup(engine)
    workload.run(engine)
    path = tmp_path / "tc.json"
    save_engine(
        engine,
        str(path),
        replay={"schedule": encode_schedule(Run(100)), "expected": expected_block(engine)},
    )
    lines = []
    assert replay_snapshot(str(path), repeats=1, log=lines.append) == 0
    assert any("expected facts confirmed" in line for line in lines)


def test_replay_snapshot_detects_stale_expectations(tmp_path):
    engine = EGraph()
    engine.relation("edge", ("i64", "i64"))
    engine.add(App("edge", 1, 2))
    path = tmp_path / "stale.json"
    expected = expected_block(engine)
    expected["table_rows"]["edge"] = 99
    save_engine(
        engine,
        str(path),
        replay={"schedule": encode_schedule(Run(1)), "expected": expected},
    )
    lines = []
    assert replay_snapshot(str(path), repeats=1, log=lines.append) == 1
    assert any("expected 99" in line for line in lines)
