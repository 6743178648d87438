"""The join executor must agree with the naive oracle in
``tests/reference.py`` — hand-picked queries and random fuzz.

Both plan shapes are forced through ``tests/conftest.py``'s
``forced_executor``, whatever the shape of the query, so each runs every
query here, cyclic or not.  Four configurations are checked: each shape
on tables that hold no index yet (the search builds what it asks for),
and each shape on tables whose every column-group index was requested
before any row arrived, so every row reached them by incremental
maintenance.
"""

from itertools import combinations

import pytest

from repro.core.builtins import default_registry
from repro.core.compile import CompiledQuery, assign_slots
from repro.core.database import Table
from repro.core.query import PrimAtom, Query, QVar, TableAtom
from repro.core.schema import FunctionDecl
from repro.core.values import I64, UNIT, UNIT_VALUE, i64

from .conftest import forced_executor
from .reference import evaluate


def _run(shape, tables, registry, query, delta_atom, since):
    slot_of, names = assign_slots(query)
    out = []
    with forced_executor(shape):
        executor = CompiledQuery(query, slot_of, len(names), registry)
    assert executor.acyclic == (shape == "indexed")
    executor.search(tables, delta_atom, since, out.append)
    return [dict(zip(names, match)) for match in out]


def warmed(tables):
    """Empty copies of ``tables`` with every column-group index requested.
    Every row reaches them by maintenance, beside writes maintenance must
    take back out: a ghost row put then removed, and a stale i64 output
    overwritten."""
    copies = {name: Table(table.decl) for name, table in tables.items()}
    for copy in copies.values():
        columns = range(copy.arity + 1)
        for size in range(1, len(columns) + 1):
            for group in combinations(columns, size):
                copy.index(group)
    for name, table in tables.items():
        copy = copies[name]
        for key, value, timestamp in table.rows():
            ghost = tuple(i64(column.data + 10) for column in key)
            copy.put(ghost, value, timestamp)
            copy.remove(ghost)
            if value.sort == I64:
                copy.put(key, i64(value.data + 10), timestamp)
            copy.put(key, value, timestamp)
    return copies


def search_indexed(tables, registry, query, delta_atom=None, since=0):
    """One atom per node, on tables holding no index."""
    return _run("indexed", tables, registry, query, delta_atom, since)


def search_generic(tables, registry, query, delta_atom=None, since=0):
    """One variable per node, on tables holding no index."""
    return _run("generic", tables, registry, query, delta_atom, since)


def search_indexed_warm(tables, registry, query, delta_atom=None, since=0):
    return _run("indexed", warmed(tables), registry, query, delta_atom, since)


def search_generic_warm(tables, registry, query, delta_atom=None, since=0):
    return _run("generic", warmed(tables), registry, query, delta_atom, since)


SEARCHES = [search_indexed, search_generic, search_indexed_warm, search_generic_warm]


def edge_table(edges, timestamps=None):
    table = Table(FunctionDecl("edge", ("i64", "i64"), UNIT))
    for index, (a, b) in enumerate(edges):
        ts = timestamps[index] if timestamps else 0
        table.put((i64(a), i64(b)), UNIT_VALUE, ts)
    return table


def triangle_query():
    x, y, z = QVar("x"), QVar("y"), QVar("z")
    return Query(
        atoms=[
            TableAtom("edge", (x, y), QVar("o1")),
            TableAtom("edge", (y, z), QVar("o2")),
            TableAtom("edge", (z, x), QVar("o3")),
        ]
    )


EDGES = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 2), (4, 5), (5, 6), (6, 4), (1, 1)]


def solutions(matches):
    return sorted(
        (m["x"].data, m["y"].data, m["z"].data) for m in matches
    )


def _canonical(matches):
    return sorted(
        tuple(sorted((name, value.sort, value.data) for name, value in match.items()))
        for match in matches
    )


def agrees_with_oracle(search, tables, query, delta_atom=None, since=0):
    """Run ``search`` and the oracle on the same database; return the
    executor's matches after asserting both sides found the same set."""
    registry = default_registry()
    expected = _canonical(evaluate(tables, registry, query, delta_atom, since))
    matches = search(tables, registry, query, delta_atom=delta_atom, since=since)
    assert _canonical(matches) == expected
    return matches


@pytest.mark.parametrize("search", SEARCHES)
def test_triangle_query_finds_all_cycles(search):
    tables = {"edge": edge_table(EDGES)}
    result = solutions(agrees_with_oracle(search, tables, triangle_query()))
    # 1-2-3 rotations, 2-4 two-cycles are not triangles unless closed, the
    # 4-5-6 cycle's rotations, and the 1-1 self-loop triangle.
    assert (1, 2, 3) in result
    assert (2, 3, 1) in result and (3, 1, 2) in result
    assert (4, 5, 6) in result and (5, 6, 4) in result and (6, 4, 5) in result
    assert (1, 1, 1) in result
    assert all((a, b) in EDGES and (b, c) in EDGES and (c, a) in EDGES for a, b, c in result)


def test_strategies_agree_exactly():
    results = [
        solutions(agrees_with_oracle(search, {"edge": edge_table(EDGES)}, triangle_query()))
        for search in SEARCHES
    ]
    assert all(result == results[0] for result in results)
    assert len(results[0]) == len(set(results[0]))  # no duplicate matches


@pytest.mark.parametrize("search", SEARCHES)
def test_delta_restriction_only_matches_new_rows(search):
    # Two triangles; only the second was inserted at timestamp 1.
    edges = [(1, 2), (2, 3), (3, 1), (7, 8), (8, 9), (9, 7)]
    stamps = [0, 0, 0, 1, 1, 1]
    tables = {"edge": edge_table(edges, stamps)}
    new_only = solutions(
        agrees_with_oracle(search, tables, triangle_query(), delta_atom=0, since=1)
    )
    assert all(a in (7, 8, 9) for a, _, _ in new_only)
    assert (7, 8, 9) in new_only
    everything = solutions(
        agrees_with_oracle(search, tables, triangle_query(), delta_atom=0, since=0)
    )
    assert (1, 2, 3) in everything and (7, 8, 9) in everything


@pytest.mark.parametrize("search", SEARCHES)
def test_primitive_guards_filter_matches(search):
    tables = {"edge": edge_table(EDGES)}
    query = triangle_query()
    query.prims.append(PrimAtom("<", (QVar("x"), QVar("y")), None))
    result = solutions(agrees_with_oracle(search, tables, query))
    assert result and all(x < y for x, y, _ in result)


@pytest.mark.parametrize("search", SEARCHES)
def test_primitive_binders_extend_bindings(search):
    tables = {"edge": edge_table([(1, 2)])}
    query = Query(
        atoms=[TableAtom("edge", (QVar("x"), QVar("y")), QVar("_o"))],
        prims=[PrimAtom("+", (QVar("x"), QVar("y")), QVar("s"))],
    )
    matches = agrees_with_oracle(search, tables, query)
    assert len(matches) == 1
    assert matches[0]["s"] == i64(3)


@pytest.mark.parametrize("search", SEARCHES)
def test_repeated_variables_and_constants(search):
    tables = {"edge": edge_table(EDGES)}
    x = QVar("x")
    self_loops = Query(atoms=[TableAtom("edge", (x, x), QVar("_o"))])
    assert [m["x"] for m in agrees_with_oracle(search, tables, self_loops)] == [i64(1)]
    # A constant in one atom and a variable repeated across two.
    two_hops = Query(
        atoms=[
            TableAtom("edge", (i64(2), x), QVar("_o1")),
            TableAtom("edge", (x, x), QVar("_o2")),
        ]
    )
    assert agrees_with_oracle(search, tables, two_hops) == []


@pytest.mark.parametrize("search", SEARCHES)
def test_arity_zero_atoms_cover_and_probe(search):
    """An arity-0 atom's key is the empty tuple: it covers a full search
    (one dict probe), and a delta search over ``r`` probes it by that key."""
    r = Table(FunctionDecl("r", (I64,), UNIT))
    r.put((i64(2),), UNIT_VALUE, 1)
    r.put((i64(3),), UNIT_VALUE, 0)
    f = Table(FunctionDecl("f", (), I64))
    f.put((), i64(2), 0)
    x = QVar("x")
    query = Query(atoms=[TableAtom("r", (x,), QVar("_o")), TableAtom("f", (), x)])
    for delta, since in [(None, 0), (0, 1), (1, 0)]:
        matches = agrees_with_oracle(search, {"r": r, "f": f}, query, delta, since)
        assert [m["x"] for m in matches] == [i64(2)]


@pytest.mark.parametrize("search", SEARCHES)
def test_missing_table_means_no_matches(search):
    assert agrees_with_oracle(search, {}, triangle_query()) == []


# ---------------------------------------------------------------------------
# Fuzz: random conjunctive queries over random small databases must return
# exactly the oracle's substitution set under every configuration.
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_VARS = ["x", "y", "z", "w"]
_VALUES = list(range(5))


def _column(draw, fresh):
    """A variable shared across atoms, a constant, or ``fresh`` (if given)."""
    kinds = ["var", "const"] + (["fresh"] if fresh is not None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return QVar(draw(st.sampled_from(_VARS)))
    if kind == "const":
        return i64(draw(st.sampled_from(_VALUES)))
    return fresh


@st.composite
def database_and_query(draw):
    """Rows for a relation ``r`` and an i64-valued function ``f`` of arity
    0 to 3, plus a random query over them: constants and repeated variables
    in any column, primitive guards and binders, and an optional delta
    atom.  Ternary atoms let a cyclic plan's cover leave columns open
    under a bound prefix, which deduplicates its bindings."""
    arities = {name: draw(st.integers(0, 3)) for name in ("r", "f")}
    rows = {}
    for name, arity in arities.items():
        keys = draw(
            st.lists(
                st.tuples(*([st.sampled_from(_VALUES)] * arity)), max_size=10, unique=True
            )
        )
        rows[name] = (
            arity,
            [
                (key, draw(st.sampled_from(_VALUES)) if name == "f" else None, index % 3)
                for index, key in enumerate(keys)
            ],
        )

    query = Query()
    for index in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["r", "f"]))
        args = tuple(_column(draw, None) for _ in range(arities[name]))
        if name == "f":
            out = _column(draw, QVar(f"_o{index}"))
        else:
            out = draw(st.sampled_from([QVar(f"_o{index}"), UNIT_VALUE]))
        query.atoms.append(TableAtom(name, args, out))
    bound = sorted(v for v in query.table_variables() if not v.startswith("_"))
    if bound and draw(st.booleans()):
        op = draw(st.sampled_from(["<", "<=", "!="]))
        a, b = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
        query.prims.append(PrimAtom(op, (QVar(a), QVar(b)), None))
    if bound and draw(st.booleans()):
        out = draw(
            st.sampled_from([QVar("s"), QVar(draw(st.sampled_from(bound))), i64(4)])
        )
        a, b = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
        query.prims.append(PrimAtom("+", (QVar(a), QVar(b)), out))
    delta = draw(st.sampled_from([None] + list(range(len(query.atoms)))))
    since = draw(st.integers(0, 2)) if delta is not None else 0
    return rows, query, delta, since


def build_tables(rows):
    tables = {}
    for name, (arity, entries) in rows.items():
        out = UNIT if name == "r" else I64
        table = Table(FunctionDecl(name, (I64,) * arity, out))
        for key, value, timestamp in entries:
            output = UNIT_VALUE if value is None else i64(value)
            table.put(tuple(i64(v) for v in key), output, timestamp)
        tables[name] = table
    return tables


@settings(max_examples=300, deadline=None)
@given(case=database_and_query())
def test_fuzz_random_queries_strategies_agree(case):
    rows, query, delta, since = case
    for search in SEARCHES:
        # A fresh database per configuration: indexes built by one search
        # must not leak into the next configuration.
        matches = _canonical(
            agrees_with_oracle(search, build_tables(rows), query, delta, since)
        )
        # The functional database admits no duplicate substitutions.
        assert len(matches) == len(set(matches))
