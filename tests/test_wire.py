"""The JSON wire contract, pinned byte for byte, plus `.egg`/JSON parity.

Each ``tests/wire/*.json`` file is a list of batches run in order on one
fresh session: ``{"egg": text}`` runs through :meth:`Session.run_egg`,
``{"ops": [...]}`` through :meth:`Session.run_program`, either with the
optional ``atomic``, ``deadline_ms`` and ``max_nodes`` request fields.
Every batch's outcome -- its ``lines``, its ``results`` or its
``ProgramError`` text -- must match the sibling ``.expected`` file
exactly, with the run-report timings (``search_s``, ``apply_s``,
``rebuild_s``) masked.  To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_wire.py

and review the diff before committing.
"""

import json
import os
import pathlib

import pytest

from repro.session import ProgramError, SessionManager

WIRE_DIR = pathlib.Path(__file__).parent / "wire"
CORPUS = sorted(WIRE_DIR.glob("*.json"))
REGEN_VAR = "REPRO_REGEN_GOLDEN"
TIMINGS = ("search_s", "apply_s", "rebuild_s")


def _mask(obj):
    if isinstance(obj, dict):
        return {key: "*" if key in TIMINGS else _mask(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_mask(item) for item in obj]
    return obj


def run_batches(batches):
    session = SessionManager().create_session()
    outcomes = []
    for batch in batches:
        options = {
            key: batch[key] for key in ("atomic", "deadline_ms", "max_nodes") if key in batch
        }
        try:
            if "egg" in batch:
                outcome = {"lines": session.run_egg(batch["egg"], **options)}
            else:
                outcome = {"results": _mask(session.run_program(batch["ops"], **options))}
        except ProgramError as error:
            outcome = {"error": str(error)}
        outcomes.append(outcome)
    return json.dumps(outcomes, indent=1) + "\n"


def test_corpus_is_populated():
    assert len(CORPUS) >= 7


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_wire_corpus(path):
    actual = run_batches(json.loads(path.read_text()))
    expected_path = path.with_suffix(".expected")
    if os.environ.get(REGEN_VAR):
        expected_path.write_text(actual)
    assert expected_path.exists(), (
        f"missing {expected_path.name}; run {REGEN_VAR}=1 pytest to create it"
    )
    assert actual == expected_path.read_text(), (
        f"answers to {path.name} diverged from {expected_path.name} "
        f"(set {REGEN_VAR}=1 to regenerate after an intentional change)"
    )


# -- JSON answers as `.egg` does -----------------------------------------------


def _lit(sort, payload):
    return ["l", [sort, payload]]


def _app(func, *args):
    return ["a", func, list(args)]


DIVERGENCE_SETUP = "(datatype M (A) (B i64))\n(relation R (M))"


def _egg_error(egg):
    """The unlocated message an `.egg` batch fails with on a fresh session."""
    session = SessionManager().create_session()
    session.run_egg(DIVERGENCE_SETUP)
    with pytest.raises(ProgramError) as info:
        session.run_egg(egg)
    return info.value.__cause__.message


def _json_error(ops):
    session = SessionManager().create_session()
    session.run_egg(DIVERGENCE_SETUP)
    with pytest.raises(ProgramError) as info:
        session.run_program(ops)
    return str(info.value)


def test_json_globals_inline_at_canonical_ids():
    ops = [
        {"op": "let", "name": "a", "term": _app("A")},
        {"op": "let", "name": "b", "term": _app("B", _lit("i64", 1))},
        {"op": "add", "term": _app("R", ["v", "a"])},
        {"op": "union", "lhs": ["v", "a"], "rhs": ["v", "b"]},
        {"op": "run", "limit": 1},
        {"op": "check", "facts": [_app("R", ["v", "b"])]},
        {"op": "check", "facts": [["=", ["v", "a"], ["v", "b"]]]},
    ]
    session = SessionManager().create_session()
    session.run_egg(DIVERGENCE_SETUP)
    assert session.run_program(ops)[-2:] == [{"ok": True, "count": 1}] * 2
    assert session.run_egg("(check (R b))\n(check (= a b))") == [
        "check: ok (1 match(es))"
    ] * 2


def test_json_literals_are_sort_checked():
    message = _egg_error('(let x (B "x"))')
    assert message == "expected a i64 here, got a String"
    ops = [{"op": "add", "term": _app("B", _lit("String", "x"))}]
    assert _json_error(ops) == f"op 0 (add): {message}"


def test_json_let_refuses_to_rebind_a_global():
    message = _egg_error("(let a (A))\n(let a (B 2))")
    assert message == "global 'a' is already bound"
    ops = [
        {"op": "let", "name": "a", "term": _app("A")},
        {"op": "let", "name": "a", "term": _app("B", _lit("i64", 2))},
    ]
    assert _json_error(ops) == f"op 1 (let): {message}"


def test_json_rewrite_refuses_unbound_right_hand_variables():
    message = _egg_error("(rewrite (B x) (B y))")
    assert message == "rewrite right-hand side uses unbound variable(s): y"
    ops = [{"op": "rewrite", "lhs": _app("B", ["v", "x"]), "rhs": _app("B", ["v", "y"])}]
    assert _json_error(ops) == f"op 0 (rewrite): {message}"


def test_json_names_an_unknown_function():
    message = _egg_error("(let z (Nope))")
    assert message == "unknown function or primitive 'Nope'"
    assert _json_error([{"op": "let", "name": "z", "term": _app("Nope")}]) == (
        f"op 0 (let): {message}"
    )
    assert _json_error([{"op": "add", "term": _app("Nope")}]) == f"op 0 (add): {message}"


# -- one program, two syntaxes ---------------------------------------------------

PARITY_EGG = """
(datatype Math (Num i64) (Add Math Math) (Mul Math Math :cost 2))
(relation edge (i64 i64))
(relation path (i64 i64))
(function best (i64 i64) i64 :merge (min old new))
(rule ((edge x y)) ((path x y) (set (best x y) 1)) :name "base")
(rule ((path x y) (edge y z) (= d (best x y))) ((path x z) (set (best x z) (+ d 1))))
(rewrite (Add x y) (Add y x) :name "comm")
(rewrite (Mul x (Num 2)) (Add x x) :when ((= x (Num n)) (> n 0)))
(edge 1 2) (edge 2 3) (edge 3 4) (edge 1 4)
(let e (Mul (Num 3) (Num 2)))
(let f (Add (Num 4) (Num 5)))
(union f (Num 9))
(run 5)
(run-schedule (saturate (run 1)))
(check (path 1 4))
"""


def _num(n):
    return _app("Num", _lit("i64", n))


def _var(name):
    return ["v", name]


PARITY_OPS = [
    {"op": "sort", "name": "Math"},
    {"op": "constructor", "name": "Num", "args": ["i64"], "out": "Math"},
    {"op": "constructor", "name": "Add", "args": ["Math", "Math"], "out": "Math"},
    {"op": "constructor", "name": "Mul", "args": ["Math", "Math"], "out": "Math", "cost": 2},
    {"op": "relation", "name": "edge", "args": ["i64", "i64"]},
    {"op": "relation", "name": "path", "args": ["i64", "i64"]},
    {"op": "function", "name": "best", "args": ["i64", "i64"], "out": "i64", "merge": "min"},
    {
        "op": "rule",
        "facts": [_app("edge", _var("x"), _var("y"))],
        "actions": [
            ["expr", _app("path", _var("x"), _var("y"))],
            ["set", _app("best", _var("x"), _var("y")), _lit("i64", 1)],
        ],
        "name": "base",
    },
    {
        "op": "rule",
        "facts": [
            _app("path", _var("x"), _var("y")),
            _app("edge", _var("y"), _var("z")),
            ["=", _var("d"), _app("best", _var("x"), _var("y"))],
        ],
        "actions": [
            ["expr", _app("path", _var("x"), _var("z"))],
            ["set", _app("best", _var("x"), _var("z")), _app("+", _var("d"), _lit("i64", 1))],
        ],
    },
    {
        "op": "rewrite",
        "lhs": _app("Add", _var("x"), _var("y")),
        "rhs": _app("Add", _var("y"), _var("x")),
        "name": "comm",
    },
    {
        "op": "rewrite",
        "lhs": _app("Mul", _var("x"), _num(2)),
        "rhs": _app("Add", _var("x"), _var("x")),
        "conditions": [
            ["=", _var("x"), _app("Num", _var("n"))],
            _app(">", _var("n"), _lit("i64", 0)),
        ],
    },
    *(
        {"op": "add", "term": _app("edge", _lit("i64", a), _lit("i64", b))}
        for a, b in ((1, 2), (2, 3), (3, 4), (1, 4))
    ),
    {"op": "let", "name": "e", "term": _app("Mul", _num(3), _num(2))},
    {"op": "let", "name": "f", "term": _app("Add", _num(4), _num(5))},
    {"op": "union", "lhs": _var("f"), "rhs": _num(9)},
    {"op": "run", "limit": 5},
    {"op": "run-schedule", "schedules": [["saturate", ["run", 1]]]},
    {"op": "check", "facts": [_app("path", _lit("i64", 1), _lit("i64", 4))]},
]


def _database(session):
    """Every table's rows and the partition into e-classes, id-for-id."""
    engine = session.engine
    engine.rebuild()
    tables = {
        name: sorted(
            (tuple(map(tuple, key)), tuple(engine.canonicalize(value)))
            for key, value in engine.table_rows(name)
        )
        for name in engine.tables
    }
    classes = {}
    for ident in range(len(engine.uf)):
        classes.setdefault(engine.uf.find(ident), []).append(ident)
    return tables, sorted(classes.values())


def test_json_and_egg_spellings_reach_the_same_database():
    egg = SessionManager().create_session()
    egg.run_egg(PARITY_EGG)
    wire = SessionManager().create_session()
    assert wire.run_program(PARITY_OPS)[-1] == {"ok": True, "count": 1}
    assert _database(wire) == _database(egg)
    assert wire.evaluator.globals == egg.evaluator.globals
    tables, classes = _database(egg)
    assert len(tables["path"]) == 6 and any(len(members) > 1 for members in classes)
