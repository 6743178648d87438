"""Benchmark subsystem: workload determinism, runner schema, CLI."""

import json

import pytest

from repro.bench import SCHEMA, default_workloads, run_suite, run_workload
from repro.bench.__main__ import main as bench_main
from repro.bench.runner import write_document
from repro.bench.workloads import (
    congruence_stress,
    math_rewriting,
    transitive_closure,
    triangles,
)

from .conftest import EXECUTORS, forced_executor


def tiny_tc():
    return transitive_closure("chain", n=6)


# -- workload generators ------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    first = transitive_closure("random", n=8, m=12, seed=3)
    second = transitive_closure("random", n=8, m=12, seed=3)
    assert first.params == second.params
    from repro.engine import EGraph

    engines = []
    for workload in (first, second):
        egraph = EGraph()
        workload.setup(egraph)
        engines.append(sorted((k[0].data, k[1].data) for k, _v in egraph.table_rows("edge")))
    assert engines[0] == engines[1]
    assert len(engines[0]) == 12


def test_grid_edges_shape():
    workload = transitive_closure("grid", n=3)
    from repro.engine import EGraph

    egraph = EGraph()
    workload.setup(egraph)
    # A 3x3 grid has 2*3*2 = 12 directed right/down edges.
    assert len(egraph.tables["edge"]) == 12


def test_unknown_graph_kind_rejected():
    with pytest.raises(ValueError, match="unknown graph kind"):
        transitive_closure("torus", n=4)


def test_default_workloads_cover_all_families():
    families = {w.family for w in default_workloads(quick=True)}
    assert families == {
        "transitive-closure",
        "math-rewriting",
        "congruence-closure",
        "proof-production",
        "triangle",
        "extract-batches",
    }


# -- runner -------------------------------------------------------------------


def test_run_workload_document_schema():
    document = run_workload(tiny_tc(), repeats=3)
    assert document["schema"] == SCHEMA == "repro.bench/v2"
    assert document["name"] == "tc_chain"
    # One engine variant: each rule picks its join from its body.
    assert list(document["variants"]) == ["default"]
    for entry in document["variants"].values():
        assert "strategy" not in entry
        for field in (
            "run_s",
            "run_s_stats",
            "runs_s",
            "setup_s",
            "search_s",
            "apply_s",
            "rebuild_s",
            "iterations",
            "matches",
            "delta_skips",
            "saturated",
            "table_rows",
        ):
            assert field in entry
        assert entry["saturated"] is True
        assert entry["table_rows"]["path"] == 15  # closure of a 6-chain
        stats = entry["run_s_stats"]
        assert list(stats) == ["min", "q1", "median", "q3", "max"]
        assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]
        assert stats["median"] in entry["runs_s"]  # an actually measured run
        assert entry["run_s"] == stats["median"]
    assert "comparison" not in document


def test_median_run_s_tolerates_v1_documents():
    from repro.bench import median_run_s

    assert median_run_s({"run_s": 0.25}) == 0.25  # v1: no run_s_stats block
    assert median_run_s({"run_s": 9.9, "run_s_stats": {"median": 0.5}}) == 0.5


def test_gc_paused_disables_gc_only_inside_the_region():
    import gc

    from repro.bench.runner import gc_paused

    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("timed region failed")
    assert gc.isenabled()
    gc.disable()  # a caller that already paused GC keeps it paused
    try:
        with gc_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_variants_agree_on_results():
    # Forcing every rule onto either executor changes no number the gate
    # checks exactly.
    workloads = [
        tiny_tc(),
        math_rewriting(depth=3, iterations=3),
        congruence_stress(leaves=8, height=3),
        triangles(n=12, m=40),
    ]
    semantic = ("matches", "iterations", "saturated", "table_rows")
    for workload in workloads:
        results = []
        for name in EXECUTORS:
            with forced_executor(name):
                entry = run_workload(workload, repeats=1)["variants"]["default"]
            results.append({field: entry[field] for field in semantic})
        assert results[0] == results[1], workload.name


def test_write_document_and_run_suite(tmp_path):
    paths = run_suite(
        [tiny_tc()],
        repeats=1,
        out_dir=tmp_path,
        log=lambda line: None,
    )
    assert paths == [tmp_path / "BENCH_tc_chain.json"]
    document = json.loads(paths[0].read_text())
    assert document["schema"] == SCHEMA
    # write_document round-trips to the same file name.
    assert write_document(document, tmp_path) == paths[0]


# -- CLI ----------------------------------------------------------------------


def test_cli_list(capsys):
    assert bench_main(["--quick", "--list"]) == 0
    out = capsys.readouterr().out
    assert "tc_chain" in out and "congruence" in out


def test_cli_only_filter_writes_single_file(tmp_path, capsys):
    assert bench_main(["--quick", "--only", "tc_chain", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == [
        "BENCH_tc_chain.json"
    ]
    assert "bench: tc_chain:" in capsys.readouterr().out


def test_cli_rejects_unknown_selection(tmp_path, capsys):
    assert bench_main(["--only", "nope", "--out", str(tmp_path)]) == 1
    assert "no workload matches" in capsys.readouterr().err


def test_cli_profile_prints_hot_functions(tmp_path, capsys):
    assert (
        bench_main(
            ["--quick", "--only", "tc_chain", "--profile", "--out", str(tmp_path)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "profile: tc_chain — top 20 by cumulative time" in out
    assert "cumulative" in out  # pstats column header
    assert not list(tmp_path.glob("BENCH_*.json"))  # profiling writes no files


# -- regression gate (repro.bench.compare) ------------------------------------


def _gate_documents(tmp_path):
    from repro.bench.runner import write_document

    committed = tmp_path / "committed"
    fresh = tmp_path / "fresh"
    document = run_workload(tiny_tc(), repeats=1)
    write_document(document, committed)
    write_document(document, fresh)
    return committed, fresh


def test_compare_passes_on_identical_documents(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    assert compare_main([str(fresh), "--against", str(committed)]) == 0
    assert "within 1.50x" in capsys.readouterr().out


def test_compare_fails_on_regression(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    path = fresh / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    for entry in document["variants"].values():
        entry["run_s_stats"]["median"] = entry["run_s_stats"]["median"] * 10 + 1.0
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 1
    assert "regressed" in capsys.readouterr().out


def test_compare_fails_on_semantic_drift(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    path = fresh / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    document["variants"]["default"]["matches"] += 1
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 1
    assert "matches changed" in capsys.readouterr().out


def test_compare_skips_on_param_change_and_tolerates_v1(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    path = committed / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    # Downgrade the committed file to schema v1: drop the stats blocks.
    document["schema"] = "repro.bench/v1"
    for entry in document["variants"].values():
        del entry["run_s_stats"]
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 0

    # A params change is an explicit failure telling the author to refresh.
    document["params"] = {"kind": "chain", "n": 99, "m": 98, "seed": 0}
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 1
    assert "refresh the committed BENCH" in capsys.readouterr().out


def test_run_s_stats_quartiles_and_readers_of_files_without_them(tmp_path):
    from repro.bench.compare import main as compare_main
    from repro.bench.runner import _run_s_stats

    assert _run_s_stats([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0
    }
    assert _run_s_stats([0.5]) == {
        "min": 0.5, "q1": 0.5, "median": 0.5, "q3": 0.5, "max": 0.5
    }
    # Committed files written before the quartiles still compare: the gate
    # reads the median alone.
    committed, fresh = _gate_documents(tmp_path)
    path = committed / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    for entry in document["variants"].values():
        del entry["run_s_stats"]["q1"], entry["run_s_stats"]["q3"]
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 0


def test_compare_fails_when_committed_variant_goes_missing(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    path = fresh / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    # Simulate a variant rename: the committed "default" vanishes from the
    # fresh run.  The gate must not pass vacuously.
    document["variants"]["renamed"] = document["variants"].pop("default")
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 1
    assert "missing from the fresh run" in capsys.readouterr().out


def test_compare_errors_when_nothing_to_compare(tmp_path, capsys):
    from repro.bench.compare import main as compare_main

    empty = tmp_path / "empty"
    empty.mkdir()
    assert compare_main([str(empty), "--against", str(tmp_path)]) == 1
    fresh = tmp_path / "fresh-only"
    from repro.bench.runner import write_document

    write_document(run_workload(tiny_tc(), repeats=1), fresh)
    assert compare_main([str(fresh), "--against", str(empty)]) == 1
    assert "nothing to compare" in capsys.readouterr().out


def test_compare_flags_zero_baseline_instead_of_dividing(tmp_path, capsys):
    # Regression guard: a committed median of 0.0 used to make every fresh
    # time "within tolerance" (0 * 1.5 == 0 passes nothing, and a ratio
    # would divide by zero); now it is its own named problem.
    from repro.bench.compare import main as compare_main

    committed, fresh = _gate_documents(tmp_path)
    path = committed / "BENCH_tc_chain.json"
    document = json.loads(path.read_text())
    for entry in document["variants"].values():
        entry["run_s_stats"]["median"] = 0.0
        entry["run_s"] = 0.0
    path.write_text(json.dumps(document))
    assert compare_main([str(fresh), "--against", str(committed)]) == 1
    out = capsys.readouterr().out
    assert "tc_chain" in out
    assert "zero/near-zero" in out
    assert "refresh the committed BENCH file" in out
