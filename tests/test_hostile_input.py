"""Client input the server must answer without a 500, leaving the session intact.

Each case is a request a client can send: literals that forge e-class ids
or carry a payload of the wrong shape, input nested past the interpreter's
stack, bodies ``json.loads`` refuses, budgets and literals past the float
range, and primitives whose ``i64`` results leave the 64-bit range.  None
may answer 500, and a refused batch applies nothing.
"""

import http.client

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import ParseError, parse_sexps
from repro.session import ProgramError, SessionManager
from repro.session.program import _OPS

from .test_server import LiveServer

SORTS = """
(datatype M (Ma) (Mb))
(datatype T (Ta) (Tb))
(let ma (Ma))
(let ta (Ta))
(relation r (i64))
(function g (i64) i64)
(datatype N (Z) (S N))
"""


@pytest.fixture(scope="module")
def live():
    server = LiveServer()
    server.request("POST", "/bases", {"name": "sorts", "program": SORTS})
    yield server
    server.stop()


def _session(live):
    _, body = live.request("POST", "/sessions", {"base": "sorts"})
    return f"/sessions/{body['session']['id']}"


def _ops(live, session, *ops):
    return live.request("POST", f"{session}/program", {"ops": list(ops)})


def _egg(live, session, program):
    return live.request("POST", f"{session}/egg", {"program": program})


def _rows(live, session):
    _, body = _ops(live, session, {"op": "stats"})
    return body["results"][0]["tables"]


def _lit(sort, payload):
    return ["l", [sort, payload]]


# -- literals --------------------------------------------------------------------


def test_forged_eclass_ids_are_refused_and_apply_nothing(live):
    session = _session(live)
    for forged in (_lit("T", 0), _lit("T", 99), _lit("M", 0)):
        status, body = _ops(
            live,
            session,
            {"op": "add", "term": ["a", "r", [_lit("i64", 1)]]},
            {"op": "union", "lhs": forged, "rhs": ["a", "Ta", []]},
        )
        assert status == 422, body
        assert body["error"].startswith("op 1 (union): no literals of sort ")
    assert _rows(live, session)["r"] == 0
    status, body = _egg(live, session, "(extract ta)\n(extract ma)")
    assert (status, body["lines"]) == (200, ["extract: (Ta) (cost 1)", "extract: (Ma) (cost 1)"])


@pytest.mark.parametrize(
    "literal",
    [_lit("i64", "abc"), _lit("i64", True), _lit("i64", 2.5), _lit("i64", None),
     _lit("String", 3), _lit("bool", 1), _lit("f64", "1.5"), _lit("Rational", 3),
     _lit("Unit", 0), _lit("Set", {"s": [["M", 0]]}), _lit("f64", {"q": "1/2"}),
     _lit("Rational", {"q": "1/2", "f": "nan"})],
    ids=repr,
)
def test_ill_shaped_literals_are_refused(live, literal):
    session = _session(live)
    status, body = _ops(live, session, {"op": "add", "term": ["a", "r", [literal]]})
    assert status == 422 and body["error"].startswith("op 0 (add): "), body
    assert _rows(live, session)["r"] == 0


def test_well_shaped_literals_of_every_primitive_sort_are_accepted(live):
    session = _session(live)
    terms = [
        ["a", "+", [_lit("i64", 2), _lit("i64", 3)]],
        ["a", "+", [_lit("f64", 1.5), _lit("f64", 1)]],
        ["a", "to-i64", [_lit("f64", {"f": "inf"})]],
        ["a", "+", [_lit("Rational", {"q": "1/2"}), _lit("Rational", {"q": "1/3"})]],
        ["a", "+", [_lit("String", "a"), _lit("String", "b")]],
        ["a", "not", [_lit("bool", False)]],
        ["a", "set-length", [_lit("Set", {"s": [["i64", 1], ["Unit", None]]})]],
    ]
    status, body = _ops(live, session, *({"op": "extract", "term": t} for t in terms))
    assert status == 422 and body["error"].startswith("op 2 (extract): primitive 'to-i64' failed")
    del terms[2]
    status, body = _ops(live, session, *({"op": "extract", "term": t} for t in terms))
    assert status == 200, body
    printed = [r["term"] for r in body["results"]]
    assert printed == ["5", "2.5", "(rational 5 6)", '"ab"', "true", "2"]


def test_a_well_formed_rule_runs_after_a_refused_literal(live):
    session = _session(live)
    status, _ = _ops(live, session, {"op": "add", "term": ["a", "r", [_lit("i64", "abc")]]})
    assert status == 422
    status, body = _egg(live, session, "(r 4)\n(rule ((r x)) ((set (g x) (+ x 1))))\n(run 1)")
    assert status == 200, body
    status, body = _egg(live, session, "(check (= (g 4) 5))")
    assert (status, body["lines"]) == (200, ["check: ok (1 match(es))"])


# -- nesting and request bodies -------------------------------------------------------


def _deep(depth):
    return "(S " * depth + "(Z)" + ")" * depth


_DEEP_LIST = "(" * 400 + ")" * 400


@pytest.mark.parametrize(
    "program, message",
    [(f"(let deep {_deep(400)})", "1:2: input nested too deeply"),
     (f"(let deep {_deep(500)})", "1:1: s-expression nested too deeply"),
     (f"(let deep {_deep(5000)})", "1:1: s-expression nested too deeply"),
     # The parser's error quotes the offending form, and printing a deep
     # one takes more stack than reading it did.
     (f"(sort {_DEEP_LIST})", "1:1: s-expression nested too deeply"),
     (f"(function f {_DEEP_LIST} i64)", "1:1: s-expression nested too deeply")],
    ids=["lower-400", "read-500", "read-5000", "parse-sort", "parse-function"],
)
def test_deep_egg_terms_answer_422(live, program, message):
    session = _session(live)
    status, body = _egg(live, session, program)
    assert status == 422 and body["error"].endswith(message), body
    assert _rows(live, session)["S"] == 0


def test_deep_json_terms_answer_422(live):
    session = _session(live)
    term = ["a", "Z", []]
    for _ in range(450):
        term = ["a", "S", [term]]
    status, body = _ops(live, session, {"op": "add", "term": term})
    assert (status, body["error"]) == (422, "op 0 (add): input nested too deeply")
    assert _rows(live, session)["S"] == 0


def _json_deep(depth):
    term = ["a", "Z", []]
    for _ in range(depth):
        term = ["a", "S", [term]]
    return term


def test_a_failing_json_check_of_a_deep_fact_answers_like_a_shallow_one(live):
    # A miss is an answer, however deep the fact.
    session = _session(live)
    assert _egg(live, session, _deep(250))[0] == 200
    status, body = _ops(
        live,
        session,
        {"op": "check", "facts": [_json_deep(251)]},
        {"op": "check", "facts": [_json_deep(250)]},
    )
    assert status == 200, body
    assert body["results"] == [{"ok": False, "count": 0}, {"ok": True, "count": 1}]


def test_a_failing_egg_check_of_a_deep_fact_names_the_fact(live):
    session = _session(live)
    assert _egg(live, session, _deep(250))[0] == 200
    status, body = _egg(live, session, f"(check {_deep(251)})")
    assert status == 422
    assert body["error"].endswith(f"1:2: check failed: no matches for {_deep(251)}")


@pytest.mark.parametrize(
    "body",
    [b'{"ops": ' + b"[" * 100000 + b"]" * 100000 + b"}", b'{"deadline_ms": ' + b"9" * 5000 + b"}"],
    ids=["nested", "huge-int"],
)
def test_bodies_json_refuses_answer_400(live, body):
    session = _session(live)
    conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=30)
    try:
        conn.request("POST", f"{session}/program", body=body)
        response = conn.getresponse()
        assert response.status == 400
        assert b"request body is not valid JSON" in response.read()
    finally:
        conn.close()


def test_budgets_past_the_float_range_answer_200(live):
    huge = 10**400  # json.loads reads up to 4,300 digits; a float holds ~309
    session = _session(live)
    run = {"op": "run", "deadline_ms": huge, "max_nodes": huge}
    schedule = {"op": "run-schedule", "schedules": [["run"]], "deadline_ms": huge}
    status, body = live.request(
        "POST", f"{session}/program", {"ops": [{"op": "run"}, run, schedule], "deadline_ms": huge}
    )
    assert status == 200 and len(body["results"]) == 3, body
    status, body = _egg(live, session, f"(run 1 :deadline-ms {huge} :max-nodes {huge})")
    assert status == 200 and body["lines"][0].startswith("run: "), body


def test_the_reader_reports_deep_input_as_a_located_parse_error():
    with pytest.raises(ParseError) as info:
        parse_sexps("(a)\n  " + "(" * 5000 + ")" * 5000)
    assert (info.value.line, info.value.col) == (2, 3)


# -- primitives -------------------------------------------------------------------


@pytest.mark.parametrize(
    "program, failing",
    [
        ("(extract (to-i64 1e309))", "primitive 'to-i64' failed"),
        (f"(extract (to-f64 {'9' * 400}))", "primitive 'to-f64' failed"),
        ("(extract (<< 1 20000))", "primitive '<<' failed"),
        ("(let big (<< 1 100000000))", "primitive '<<' failed"),
        ("(let big (<< 1 (<< 1 40)))", "primitive '<<' failed"),
        ("(let big (<< 1 63))", "primitive '<<' failed"),
        ("(let big (* 4611686018427387904 2))", "primitive '*' failed"),
        ("(let big (- -9223372036854775808 1))", "primitive '-' failed"),
        ("(let big (neg -9223372036854775808))", "primitive 'neg' failed"),
    ],
)
def test_i64_results_outside_64_bits_fail_the_primitive(live, program, failing):
    session = _session(live)
    status, body = _egg(live, session, program)
    assert status == 422 and failing in body["error"], body


@pytest.mark.parametrize("surface", ["egg", "json"])
def test_integers_too_large_for_a_double_do_not_widen_to_f64(live, surface):
    huge = 10**400
    session = _session(live)
    if surface == "egg":
        status, body = _egg(live, session, f"(relation rf (f64))\n(rf {huge})")
    else:
        status, body = _ops(
            live,
            session,
            {"op": "relation", "name": "rf", "args": ["f64"]},
            {"op": "add", "term": ["a", "rf", [_lit("i64", huge)]]},
        )
    assert status == 422 and "expected a f64 here, got a i64" in body["error"], body


def test_repeated_squaring_stops_at_the_i64_range(live):
    # Squaring 3 passes 2^63 at the sixth step.  Eight steps show the stop;
    # forty, as a client could send, would ask a build without the range
    # check for integers of billions of bits.
    session = _session(live)
    lets = ["(let x0 3)"] + [f"(let x{k} (* x{k - 1} x{k - 1}))" for k in range(1, 9)]
    status, body = _egg(live, session, "\n".join(lets))
    assert status == 422 and "<session" in body["error"] and ":7:" in body["error"], body
    assert "primitive '*' failed" in body["error"]
    status, body = _egg(live, session, "(let top (<< 1 62))\n(extract (+ top (- top 1)))")
    assert (status, body["lines"]) == (200, ["extract: 9223372036854775807 (cost 0)"])


# -- any JSON a client can send ---------------------------------------------------

_FIELDS = ["name", "args", "out", "merge", "default", "cost", "unextractable", "facts",
           "actions", "ruleset", "lhs", "rhs", "conditions", "bidirectional", "term",
           "limit", "deadline_ms", "max_nodes", "schedules"]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**64, 10**400, 1.5]),
    st.sampled_from(["M", "T", "i64", "r", "g", "S", "Z", "x", "=", "v", "l", "a", "run"]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(st.sampled_from(["v", "l", "a"]), inner, inner).map(list),
        st.dictionaries(st.sampled_from(["f", "q", "s"]), inner, max_size=1),
    ),
    max_leaves=12,
)
_OP = st.fixed_dictionaries(
    {"op": st.sampled_from(sorted(_OPS) + ["nope"])},
    optional={field: _JSON for field in _FIELDS},
)


@pytest.mark.parametrize(
    "op",
    [{"op": "rule", "facts": [], "actions": [], "name": ["r"]},
     {"op": "rewrite", "lhs": ["a", "Z", []], "rhs": ["a", "Z", []], "name": 5}],
    ids=["rule", "rewrite"],
)
def test_a_rule_name_must_be_a_string(op):
    session = SessionManager().create_session()
    session.run_egg(SORTS)
    with pytest.raises(ProgramError, match=r"field 'name' must be a string"):
        session.run_program([op])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.one_of(_OP, _JSON), min_size=1, max_size=4))
def test_any_json_program_answers_or_is_refused(ops):
    session = SessionManager().create_session()
    session.run_egg(SORTS)
    try:
        session.run_program(ops)
    except ProgramError:
        pass
