"""Service-layer tests: session manager, HTTP server, concurrency.

Three layers, tested at their natural seams:

* :class:`SessionManager` directly — base registration, in-memory forking,
  LRU eviction with busy-session immunity, idle TTLs, error taxonomy;
* the HTTP surface over a **real socket** — an asyncio server on an
  ephemeral port, driven by ``http.client`` from the test thread, covering
  the full lifecycle (base -> session -> run -> fork -> budgeted run ->
  extract -> delete) plus transport errors;
* the concurrency property — N threads hammering sessions forked from one
  base must each reach exactly the state a serial run reaches, because
  sessions share nothing mutable but the (lock-protected) compile cache.
"""

import gc
import http.client
import json
import threading
import time
import weakref

import pytest

from repro.server import App, serve
from repro.session import (
    CapacityError,
    DuplicateNameError,
    ProgramError,
    SessionManager,
    UnknownBaseError,
    UnknownSessionError,
)

TC_PROGRAM = """
(relation edge (i64 i64))
(relation path (i64 i64))
(rule ((edge x y)) ((path x y)) :name "base")
(rule ((path x y) (edge y z)) ((path x z)) :name "trans")
(edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5)
"""

CHECK_1_5 = {"op": "check", "facts": [["a", "path", [["l", ["i64", 1]], ["l", ["i64", 5]]]]]}


# ---------------------------------------------------------------------------
# SessionManager
# ---------------------------------------------------------------------------


def test_a_removed_session_is_freed_without_the_cyclic_collector():
    # An open-shaped session (fork, a check, an extract, delete) must leave
    # no cycle behind: its engine is freed as soon as the manager drops it.
    mgr = SessionManager()
    mgr.add_base_from_program("tc", TC_PROGRAM + "(run 10)")
    gc.collect()
    gc.disable()
    try:
        session = mgr.create_session("tc")
        session.run_program([CHECK_1_5, {"op": "extract", "term": CHECK_1_5["facts"][0]}])
        engine = weakref.ref(session.engine)
        mgr.remove_session(session.id)
        del session
        assert engine() is None
    finally:
        gc.enable()


def test_manager_base_and_session_lifecycle():
    mgr = SessionManager()
    info = mgr.add_base_from_program("tc", TC_PROGRAM)
    assert info["name"] == "tc" and info["rows"] == 4 and info["source"] == "egg"
    session = mgr.create_session("tc")
    assert mgr.get(session.id) is session
    assert session.run_egg("(run 10)\n(check (path 1 5))")[-1].startswith("check: ok")
    assert mgr.bases()[0]["forks"] == 1
    mgr.remove_session(session.id)
    with pytest.raises(UnknownSessionError):
        mgr.get(session.id)
    mgr.remove_base("tc")
    with pytest.raises(UnknownBaseError):
        mgr.create_session("tc")


def test_manager_error_taxonomy():
    mgr = SessionManager()
    mgr.add_base_from_program("tc", TC_PROGRAM)
    with pytest.raises(DuplicateNameError):
        mgr.add_base_from_program("tc", TC_PROGRAM)
    with pytest.raises(UnknownBaseError):
        mgr.create_session("nope")
    with pytest.raises(UnknownSessionError):
        mgr.remove_session("s999")
    with pytest.raises(ProgramError):
        mgr.add_base_from_program("broken", "(this is not a command)")
    session = mgr.create_session("tc")
    with pytest.raises(ProgramError):
        session.run_egg("(check (no-such-relation 1))")
    with pytest.raises(ProgramError):
        session.run_program([{"op": "definitely-not-an-op"}])


def test_manager_fork_isolation_between_siblings():
    mgr = SessionManager()
    mgr.add_base_from_program("tc", TC_PROGRAM)
    a, b = mgr.create_session("tc"), mgr.create_session("tc")
    a.run_egg("(run 10)")
    # b never ran: the transitive fact exists only in a.
    assert a.run_program([CHECK_1_5])[0]["ok"] is True
    assert b.run_program([CHECK_1_5])[0]["ok"] is False
    # New facts on b stay on b.
    b.run_egg("(edge 5 6)")
    assert b.engine.node_count() == 5
    assert a.engine.node_count() > 5  # a ran to closure, without b's edge


def test_manager_lru_eviction_prefers_least_recently_used():
    mgr = SessionManager(max_sessions=2)
    mgr.add_base_from_program("tc", TC_PROGRAM)
    a = mgr.create_session("tc")
    b = mgr.create_session("tc")
    mgr.get(a.id)  # a is now most recently used; b is the LRU victim
    c = mgr.create_session("tc")
    assert mgr.get(a.id) is a and mgr.get(c.id) is c
    with pytest.raises(UnknownSessionError):
        mgr.get(b.id)
    assert mgr.stats()["evictions"] == 1


def test_manager_eviction_skips_busy_sessions():
    mgr = SessionManager(max_sessions=2)
    mgr.add_base_from_program("tc", TC_PROGRAM)
    a = mgr.create_session("tc")
    b = mgr.create_session("tc")
    with a.lock:  # a is mid-batch: immune; the newer b gets evicted instead
        c = mgr.create_session("tc")
        assert mgr.get(a.id) is a
        with pytest.raises(UnknownSessionError):
            mgr.get(b.id)
        # Every session busy -> capacity error, not a deadlock.
        with c.lock:
            with pytest.raises(CapacityError):
                mgr.create_session("tc")


def test_manager_idle_ttl_sweep():
    mgr = SessionManager(idle_ttl_s=0.05)
    mgr.add_base_from_program("tc", TC_PROGRAM)
    old = mgr.create_session("tc")
    time.sleep(0.08)
    fresh = mgr.create_session("tc")  # admission sweeps expired sessions
    with pytest.raises(UnknownSessionError):
        mgr.get(old.id)
    assert mgr.get(fresh.id) is fresh


def test_manager_fork_session_carries_globals():
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64) (Plus M M))\n(let e (Plus (N 1) (N 2)))")
    fork = mgr.fork_session(s.id)
    assert fork.base is None and fork.id != s.id
    assert fork.run_egg("(extract e)") == ["extract: (Plus (N 1) (N 2)) (cost 3)"]


def test_budgeted_run_reports_partial_over_program_surface():
    mgr = SessionManager()
    mgr.add_base_from_program("tc", TC_PROGRAM)
    s = mgr.create_session("tc")
    (result,) = s.run_program([{"op": "run", "limit": 100, "max_nodes": 0}])
    report = result["report"]
    assert report["stopped_reason"] == "max-nodes"
    assert report["iterations"] == 0 and not report["saturated"]


# ---------------------------------------------------------------------------
# HTTP server over a real socket
# ---------------------------------------------------------------------------


class LiveServer:
    """An asyncio server on an ephemeral port, event loop in a daemon thread."""

    def __init__(self, app_kwargs=None, serve_kwargs=None, **manager_kwargs):
        import asyncio

        self.app = App(SessionManager(**manager_kwargs), **(app_kwargs or {}))
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        holder = {}

        def runner():
            asyncio.set_event_loop(self.loop)
            server = self.loop.run_until_complete(
                serve(self.app.handle, "127.0.0.1", 0, **(serve_kwargs or {}))
            )
            holder["port"] = server.sockets[0].getsockname()[1]
            started.set()
            try:
                self.loop.run_forever()
            finally:
                server.close()
                self.loop.run_until_complete(server.wait_closed())
                # Unwind lingering connection handlers before closing the
                # loop so their finally blocks can still touch it.
                tasks = asyncio.all_tasks(self.loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    self.loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True)
                    )
                self.loop.close()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(5), "server did not start"
        self.port = holder["port"]

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)

    def request(self, method, path, body=None):
        status, payload, _headers = self.request_full(method, path, body)
        return status, payload

    def request_full(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read()), dict(response.getheaders())
        finally:
            conn.close()


@pytest.fixture()
def server():
    live = LiveServer()
    yield live
    live.stop()


def test_http_full_lifecycle(server):
    status, body = server.request("GET", "/healthz")
    assert status == 200 and body["ok"]

    status, body = server.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
    assert status == 201 and body["base"]["rows"] == 4

    status, body = server.request("POST", "/sessions", {"base": "tc"})
    assert status == 201
    sid = body["session"]["id"]

    # Fork *before* running: the fork stays at the base state.
    status, body = server.request("POST", f"/sessions/{sid}/fork")
    assert status == 201
    fid = body["session"]["id"]

    status, body = server.request(
        "POST", f"/sessions/{sid}/egg", {"program": "(run 10)\n(check (path 1 5))"}
    )
    assert status == 200 and body["lines"][-1].startswith("check: ok")

    status, body = server.request("POST", f"/sessions/{fid}/program", {"ops": [CHECK_1_5]})
    assert status == 200 and body["results"][0]["ok"] is False  # isolation

    # Budget expiry over HTTP: zero deadline stops before the first iteration.
    status, body = server.request(
        "POST",
        f"/sessions/{fid}/program",
        {"ops": [{"op": "run", "limit": 100, "deadline_ms": 0}]},
    )
    report = body["results"][0]["report"]
    assert status == 200 and report["stopped_reason"] == "deadline"
    assert report["iterations"] == 0

    status, body = server.request("GET", "/stats")
    assert status == 200 and body["stats"]["sessions"] == 2
    assert "compile_cache" in body["stats"]

    status, body = server.request("DELETE", f"/sessions/{fid}")
    assert status == 200
    status, body = server.request("GET", f"/sessions/{fid}")
    assert status == 404


def test_http_error_statuses(server):
    assert server.request("GET", "/no/such/route")[0] == 404
    assert server.request("DELETE", "/healthz")[0] == 405
    assert server.request("POST", "/sessions", {"base": "ghost"})[0] == 404
    server.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
    assert server.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})[0] == 409
    assert server.request("POST", "/bases", {"name": "x"})[0] == 400  # no program/path
    status, body = server.request("POST", "/sessions", {"base": "tc"})
    sid = body["session"]["id"]
    status, body = server.request(
        "POST", f"/sessions/{sid}/program", {"ops": [{"op": "nope"}]}
    )
    assert status == 422 and "unknown op" in body["error"]
    # Malformed JSON body -> 400 at the transport layer.
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", "/sessions", body="{not json")
        response = conn.getresponse()
        assert response.status == 400
        response.read()
    finally:
        conn.close()


def test_http_wrong_arity_ops_answer_422_and_roll_back(executor):
    live = LiveServer()
    try:
        live.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
        _, body = live.request("POST", "/sessions", {"base": "tc"})
        program = f"/sessions/{body['session']['id']}/program"
        _, before = live.request("POST", program, {"ops": [{"op": "stats"}]})
        edge_1 = ["a", "edge", [["l", ["i64", 1]]]]
        edge_6_7 = ["a", "edge", [["l", ["i64", 6]], ["l", ["i64", 7]]]]
        for ops in (
            [{"op": "check", "facts": [edge_1]}],
            # The valid first add is rolled back with the failing second.
            [{"op": "add", "term": edge_6_7}, {"op": "add", "term": edge_1}],
            [{"op": "rule", "facts": [["a", "edge", [["v", "x"]]]], "actions": []}],
        ):
            status, body = live.request("POST", program, {"ops": ops})
            assert status == 422
            assert "'edge' expects 2 argument(s), got 1" in body["error"]
        _, after = live.request("POST", program, {"ops": [{"op": "stats"}]})
        assert after["results"] == before["results"]
        edge_x_y = ["a", "edge", [["v", "x"], ["v", "y"]]]
        status, body = live.request("POST", program, {"ops": [{"op": "check", "facts": [edge_x_y]}]})
        assert status == 200 and body["results"][0] == {"ok": True, "count": 4}
    finally:
        live.stop()


def test_http_snapshot_base(server, tmp_path, monkeypatch):
    # A network client may not name a server file: every snapshot_path,
    # readable snapshot or not, gets the same 403 and no file is opened.
    from repro.frontend import Evaluator
    from repro.server.app import SNAPSHOT_PATH_REFUSED

    ev = Evaluator()
    ev.run_program(TC_PROGRAM + "\n(run 10)")
    path = tmp_path / "tc.json"
    ev.save_snapshot(str(path))

    def no_file(*args, **kwargs):
        raise AssertionError("POST /bases opened a file")

    monkeypatch.setattr("builtins.open", no_file)
    monkeypatch.setattr(SessionManager, "add_base_from_snapshot", no_file)
    answers = [
        server.request("POST", "/bases", {"name": "warm", "snapshot_path": probe})
        for probe in (str(path), "/etc/passwd", "/nope.json", str(tmp_path), 7)
    ]
    monkeypatch.undo()
    assert answers == [(403, {"ok": False, "error": SNAPSHOT_PATH_REFUSED})] * 5
    assert "repro-serve --base NAME=PATH.json" in SNAPSHOT_PATH_REFUSED
    assert server.request("GET", "/bases")[1]["bases"] == []
    # The operator's route still works: --base NAME=PATH.json calls this.
    server.app.manager.add_base_from_snapshot("warm", str(path))
    status, body = server.request("POST", "/sessions", {"base": "warm"})
    sid = body["session"]["id"]
    # The base was saturated before saving: the fact is already there.
    status, body = server.request("POST", f"/sessions/{sid}/program", {"ops": [CHECK_1_5]})
    assert body["results"][0]["ok"] is True


def test_serve_cli_rejects_a_bad_base_in_one_line(tmp_path, capsys):
    from repro.server.cli import main as serve_main

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"schema": "repro.snapshot/v1", "digest": "sha256:0"}')
    cases = {
        "bad": tmp_path / "bad.json",
        "corrupt": corrupt,
        "missing": tmp_path / "missing.json",
    }
    cases["bad"].write_text("not json {")
    for name, path in cases.items():
        with pytest.raises(SystemExit) as raised:
            serve_main(["--port", "0", "--base", f"{name}={path}"])
        message = str(raised.value.code)
        assert message.startswith(f"repro-serve: cannot load base {name!r}: "), message
        assert "\n" not in message


def _saved_snapshot(tmp_path):
    """A real snapshot file, written by a local evaluator (which may)."""
    from repro.frontend import Evaluator

    path = tmp_path / "local.json"
    Evaluator().run_program(TC_PROGRAM + f'(save "{path}")')
    assert path.exists()
    return path


def test_http_egg_batches_refuse_save_and_load(server, tmp_path):
    outside = tmp_path / "outside.json"
    snapshot = _saved_snapshot(tmp_path)
    server.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
    _, body = server.request("POST", "/sessions", {"base": "tc"})
    sid = body["session"]["id"]
    stats_op = {"ops": [{"op": "stats"}]}
    _, before = server.request("POST", f"/sessions/{sid}/program", stats_op)
    for command in (f'(save "{outside}")', f'(load "{snapshot}")'):
        status, body = server.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(edge 7 8)\n" + command}
        )
        assert status == 422, body
        assert "refused in a served session" in body["error"]
        assert "POST /sessions/<id>/checkpoint" in body["error"]
    assert not outside.exists()
    _, after = server.request("POST", f"/sessions/{sid}/program", stats_op)
    assert after["results"] == before["results"]  # (edge 7 8) rolled back
    # A base program is refused the same way, and registers nothing.
    status, body = server.request(
        "POST", "/bases", {"name": "writer", "program": TC_PROGRAM + f'(save "{outside}")'}
    )
    assert status == 422 and "refused in a served session" in body["error"]
    assert not outside.exists()
    assert [base["name"] for base in server.request("GET", "/bases")[1]["bases"]] == ["tc"]


def test_every_manager_evaluator_refuses_file_io(tmp_path):
    snapshot = _saved_snapshot(tmp_path)
    mgr = SessionManager(max_sessions=2, state_dir=str(tmp_path / "state"))
    mgr.add_base_from_program("tc", TC_PROGRAM)  # also what --base runs
    mgr.add_base_from_snapshot("warm", str(snapshot))
    sessions = [mgr.create_session("tc"), mgr.create_session("warm")]
    sessions.append(mgr.fork_session(sessions[0].id))  # evicts sessions[0]
    sessions.append(mgr.create_session())  # evicts sessions[1]
    restored = [mgr.get(sessions[0].id), mgr.get(sessions[1].id)]  # from checkpoints
    assert mgr.stats()["durability"]["restores"] == 2
    for session in sessions[2:] + restored:
        assert session.evaluator.file_io is False
        with pytest.raises(ProgramError, match="refused in a served session"):
            session.run_egg(f'(load "{snapshot}")')
    with pytest.raises(ProgramError, match=r"\(save\) is refused"):
        mgr.add_base_from_program("writer", f'(save "{tmp_path / "base.json"}")')
    assert not (tmp_path / "base.json").exists()


# ---------------------------------------------------------------------------
# Concurrency property: N threads == serial
# ---------------------------------------------------------------------------


def _saturate_and_observe(session):
    """Run a session's chain to closure; return every observable we track."""
    lines = session.run_egg("(run 100)")
    results = session.run_program(
        [CHECK_1_5, {"op": "check", "facts": [["a", "path", [["l", ["i64", 2]], ["l", ["i64", 5]]]]]}]
    )
    return lines, results, session.engine.node_count()


def test_concurrent_sessions_match_serial():
    mgr = SessionManager(max_sessions=32)
    mgr.add_base_from_program("tc", TC_PROGRAM)

    # Serial reference: one session, run on the main thread.
    expected = _saturate_and_observe(mgr.create_session("tc"))

    n_threads = 8
    outcomes = [None] * n_threads
    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(i):
        try:
            session = mgr.create_session("tc")
            barrier.wait(timeout=10)  # maximize interleaving
            outcomes[i] = _saturate_and_observe(session)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append((i, error))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, f"worker failures: {errors}"
    for i, outcome in enumerate(outcomes):
        assert outcome == expected, f"thread {i} diverged from the serial run"


def test_concurrent_http_clients_stay_isolated(server):
    server.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
    n_clients = 6
    results = [None] * n_clients
    errors = []

    def client(i):
        try:
            _, body = server.request("POST", "/sessions", {"base": "tc"})
            sid = body["session"]["id"]
            if i % 2 == 0:
                server.request("POST", f"/sessions/{sid}/egg", {"program": "(run 100)"})
            _, body = server.request("POST", f"/sessions/{sid}/program", {"ops": [CHECK_1_5]})
            results[i] = body["results"][0]["ok"]
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append((i, error))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, f"client failures: {errors}"
    # Even clients ran to closure (fact present), odd clients never ran.
    assert results == [i % 2 == 0 for i in range(n_clients)]


# ---------------------------------------------------------------------------
# Durability: passivation, restore, checkpoints, transactional batches
# ---------------------------------------------------------------------------


def _engine_bytes(session):
    """The session's engine as canonical snapshot text (byte-identity probe)."""
    from repro.serialize.snapshot import dumps_document, engine_document

    return dumps_document(engine_document(session.engine))


def test_eviction_passivates_and_touch_restores(tmp_path):
    mgr = SessionManager(max_sessions=1, state_dir=str(tmp_path))
    mgr.add_base_from_program("tc", TC_PROGRAM)
    a = mgr.create_session("tc")
    a.run_egg("(run 10)")
    before = _engine_bytes(a)
    globals_before = dict(a.evaluator.globals)
    aid = a.id

    b = mgr.create_session("tc")  # evicts a -> checkpoint, not data loss
    assert mgr.store.contains(aid)
    assert aid in mgr._passivated_ids()

    restored = mgr.get(aid)  # transparent restore on next touch
    assert restored is not a  # a fresh object, same durable state
    assert restored.id == aid and restored.base == "tc"
    assert _engine_bytes(restored) == before
    assert set(restored.evaluator.globals) == set(globals_before)
    assert restored.run_program([CHECK_1_5])[0]["ok"] is True
    stats = mgr.stats()["durability"]
    assert stats["restores"] == 1 and stats["checkpoints"] >= 1
    assert mgr.get(b.id) is b or mgr.get(b.id).id == b.id


def test_idle_ttl_passivates_with_store(tmp_path):
    mgr = SessionManager(idle_ttl_s=0.05, state_dir=str(tmp_path))
    mgr.add_base_from_program("tc", TC_PROGRAM)
    old = mgr.create_session("tc")
    old.run_egg("(run 10)")
    oid = old.id
    time.sleep(0.08)
    mgr.create_session("tc")  # admission sweeps the expired session
    assert mgr.store.contains(oid)
    assert mgr.get(oid).run_program([CHECK_1_5])[0]["ok"] is True


def test_manager_restart_rediscovers_checkpoints(tmp_path):
    first = SessionManager(state_dir=str(tmp_path))
    s = first.create_session()
    s.run_egg("(datatype M (N i64) (Plus M M))\n(let e (Plus (N 1) (N 2)))")
    sid = s.id
    first.checkpoint_all()

    second = SessionManager(state_dir=str(tmp_path))
    listed = {info["id"] for info in second.sessions()}
    assert sid in listed
    restored = second.get(sid)
    assert restored.run_egg("(extract e)") == ["extract: (Plus (N 1) (N 2)) (cost 3)"]
    # Fresh ids must not collide with restored ones.
    fresh = second.create_session()
    assert fresh.id != sid


def test_remove_session_also_discards_checkpoint(tmp_path):
    mgr = SessionManager(state_dir=str(tmp_path))
    s = mgr.create_session()
    mgr.checkpoint_session(s.id)
    assert mgr.store.contains(s.id)
    mgr.remove_session(s.id)
    assert not mgr.store.contains(s.id)
    with pytest.raises(UnknownSessionError):
        mgr.get(s.id)


def test_failed_batch_rolls_back_engine_and_globals():
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64) (Plus M M))\n(let e (Plus (N 1) (N 2)))")
    before = _engine_bytes(s)
    with pytest.raises(ProgramError):
        s.run_egg("(let f (N 7))\n(no-such-command)")
    assert _engine_bytes(s) == before
    assert "f" not in s.evaluator.globals
    with pytest.raises(ProgramError):
        s.run_program([{"op": "run", "limit": 1}, {"op": "nope"}])
    assert _engine_bytes(s) == before


def test_failed_program_batch_keeps_indexes_of_tables_it_never_wrote():
    # Rollback reinstalls unwritten tables by reference, so an index built
    # before the batch survives it instead of being rebuilt on next use.
    live = LiveServer()
    try:
        live.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM + "(run 10)"})
        _, body = live.request("POST", "/sessions", {"base": "tc"})
        sid = body["session"]["id"]
        path_from_1 = {
            "op": "check",
            "facts": [["a", "path", [["l", ["i64", 1]], ["v", "y"]]]],
        }
        status, body = live.request("POST", f"/sessions/{sid}/program", {"ops": [path_from_1]})
        assert status == 200 and body["results"][0]["count"] == 4
        path = live.app.manager.get(sid).engine.tables["path"]
        index = path._indexes[(0,)]
        status, _ = live.request(
            "POST", f"/sessions/{sid}/program", {"ops": [path_from_1, {"op": "nope"}]}
        )
        assert status == 422
        assert path._indexes[(0,)] is index
        assert live.app.manager.get(sid).engine.tables["path"] is path
    finally:
        live.stop()


def test_non_atomic_batch_keeps_partial_state():
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64))")
    with pytest.raises(ProgramError):
        s.run_egg("(let f (N 7))\n(no-such-command)", atomic=False)
    assert "f" in s.evaluator.globals


def test_rollback_preserves_client_push_pop_pairing():
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64))\n(let x (N 1))")
    s.run_egg("(push)")
    s.run_egg("(let y (N 2))")
    with pytest.raises(ProgramError):
        s.run_egg("(push)\n(let z (N 3))\n(no-such-command)")  # rolled back
    # The failed batch's (push) vanished with the rollback: one (pop)
    # returns to the client's own push point.
    s.run_egg("(pop)")
    assert "x" in s.evaluator.globals
    assert "y" not in s.evaluator.globals and "z" not in s.evaluator.globals
    with pytest.raises(ProgramError):
        s.run_egg("(pop)")  # nothing left to pop


def test_rollback_after_in_batch_pop_keeps_stack_entries_pristine():
    # A failed batch that *popped* a client push must not leak its rows
    # into the pinned stack entry: restore installs defensive copies, so
    # the entry the rollback re-pins stays exactly as the client pushed it.
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64))\n(push)\n(let a (N 1))")
    before = _engine_bytes(s)
    with pytest.raises(ProgramError):
        s.run_egg("(pop)\n(let b (N 7))\n(no-such-command)")
    assert _engine_bytes(s) == before  # rollback: the batch never happened
    s.run_egg("(pop)")  # the client's own pop: back to pre-push state
    assert all(len(t.data) == 0 for t in s.engine.tables.values())
    assert "a" not in s.evaluator.globals and "b" not in s.evaluator.globals


def test_rollback_of_a_pop_and_redeclare_keeps_the_pushed_merge():
    # The rolled-back batch pops and redeclares f with another :merge; the
    # rollback must leave f's table on the min-merge declaration.
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg("(datatype E (A) (B)) (push)")
    s.run_egg("(function f (E) i64 :merge (min old new)) (set (f (A)) 5) (set (f (B)) 7)")
    with pytest.raises(ProgramError):
        s.run_egg("(pop) (function f (E) i64 :merge (max old new)) (check (f (A) (A)))")
    assert s.run_egg("(union (A) (B)) (run 1) (extract (f (A)))")[-1] == "extract: 5 (cost 0)"


def test_committed_batches_keep_compiled_rule_executors():
    # A batch's capture swaps nothing a compiled executor holds, so the next
    # committed batch runs each rule through the same RuleExec.
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg(TC_PROGRAM + "(run 10)")
    trans = s.engine.rules["trans"]
    first = trans.cached_exec
    assert first is not None
    s.run_egg("(edge 5 6) (run 10) (check (path 1 6))")
    assert s.engine.rules["trans"] is trans and trans.cached_exec is first


def test_batch_on_passivated_session_lands_on_live_incarnation(tmp_path):
    # The lookup-to-lock race: a session retired between manager.get and
    # the batch acquiring its mutex must transparently redirect to the
    # restored incarnation — its effects durable, not silently discarded.
    mgr = SessionManager(state_dir=str(tmp_path))
    mgr.add_base_from_program("tc", TC_PROGRAM)
    s = mgr.get(mgr.create_session("tc").id)  # what a request handler holds
    assert mgr._retire(s)  # passivation wins the race before the batch
    assert s.retired and s.id not in mgr._sessions

    s.run_egg("(edge 9 9)")  # ran on the orphan's live successor
    live = mgr.get(s.id)
    assert live is not s
    check_9 = {
        "op": "check",
        "facts": [["a", "edge", [["l", ["i64", 9]], ["l", ["i64", 9]]]]],
    }
    assert live.run_program([check_9])[0]["ok"] is True
    # And the same for the JSON program surface.
    assert mgr._retire(live)
    results = s.run_program([{"op": "run", "limit": 10}, CHECK_1_5])
    assert results[1]["ok"] is True
    assert mgr.stats()["durability"]["restores"] >= 2


def test_batch_on_retired_session_without_store_is_an_explicit_error():
    # Without a store, losing the race to eviction is loud (the pre-PR
    # 404), never a 200 whose effects evaporate.
    mgr = SessionManager()
    s = mgr.get(mgr.create_session().id)
    assert mgr._retire(s)
    with pytest.raises(UnknownSessionError):
        s.run_egg("(datatype M (N i64))")


def test_http_checkpoint_endpoint_and_passivated_listing(tmp_path):
    live = LiveServer(max_sessions=1, state_dir=str(tmp_path))
    try:
        live.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
        _, body = live.request("POST", "/sessions", {"base": "tc"})
        sid = body["session"]["id"]
        live.request("POST", f"/sessions/{sid}/egg", {"program": "(run 10)"})

        status, body = live.request("POST", f"/sessions/{sid}/checkpoint")
        assert status == 200 and body["checkpoint"]["id"] == sid
        assert body["checkpoint"]["digest"]

        _, body = live.request("POST", "/sessions", {"base": "tc"})  # evicts sid
        _, body = live.request("GET", "/sessions")
        flags = {s["id"]: s.get("passivated", False) for s in body["sessions"]}
        assert flags[sid] is True

        status, body = live.request("POST", f"/sessions/{sid}/program", {"ops": [CHECK_1_5]})
        assert status == 200 and body["results"][0]["ok"] is True

        _, body = live.request("GET", "/stats")
        durability = body["stats"]["durability"]
        assert durability["restores"] == 1 and durability["checkpoints"] >= 2
        assert body["stats"]["server"]["pending"] == 1  # this very request
    finally:
        live.stop()


def test_http_atomic_flag_and_deadline_validation(tmp_path):
    live = LiveServer()
    try:
        _, body = live.request("POST", "/sessions", {})
        sid = body["session"]["id"]
        live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(datatype M (N i64))"}
        )
        status, body = live.request(
            "POST",
            f"/sessions/{sid}/egg",
            {"program": "(let f (N 7))\n(no-such-command)", "atomic": False},
        )
        assert status == 422
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(extract f)"}
        )
        assert status == 200  # partial state survived the non-atomic batch
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(run 1)", "atomic": "yes"}
        )
        assert status == 400
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(run 1)", "deadline_ms": -5}
        )
        assert status == 400
    finally:
        live.stop()


def test_http_server_default_deadline_applies():
    live = LiveServer(app_kwargs={"deadline_ms": 1})
    try:
        live.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
        _, body = live.request("POST", "/sessions", {"base": "tc"})
        sid = body["session"]["id"]
        status, body = live.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(run 100000)"}
        )
        # The app-wide 1ms deadline bounds the run even though the request
        # itself set no budget.
        assert status == 200
    finally:
        live.stop()


# ---------------------------------------------------------------------------
# Overload and drain: 503 + Retry-After
# ---------------------------------------------------------------------------


def test_capacity_503_carries_retry_after():
    live = LiveServer(max_sessions=1)
    try:
        live.request("POST", "/bases", {"name": "tc", "program": TC_PROGRAM})
        _, body = live.request("POST", "/sessions", {"base": "tc"})
        sid = body["session"]["id"]
        session = live.app.manager.get(sid)
        with session.lock:  # the only session is busy: nothing evictable
            status, body, headers = live.request_full("POST", "/sessions", {"base": "tc"})
        assert status == 503 and not body["ok"]
        assert headers.get("Retry-After") == "1"
    finally:
        live.stop()


def test_overloaded_server_refuses_with_503():
    live = LiveServer(app_kwargs={"max_pending": 0})
    try:
        status, body, headers = live.request_full("GET", "/healthz")
        assert status == 503 and "in flight" in body["error"]
        assert headers.get("Retry-After") == "1"
        assert live.app.rejected == 1
    finally:
        live.stop()


def test_the_package_version_is_resolved_once(monkeypatch):
    # Without an installed distribution importlib.metadata scans sys.path on
    # every call, and every response names the version in its Server header.
    from importlib import metadata

    from repro import _version
    from repro.server import http as http_mod

    calls = []
    real_version = metadata.version

    def counting_version(name):
        calls.append(name)
        return real_version(name)

    monkeypatch.setattr(metadata, "version", counting_version)
    _version.package_version.cache_clear()
    try:
        first = http_mod._encode_response(200, {"ok": True}, True)
        second = http_mod._encode_response(200, {"ok": True}, True)
        assert len(calls) <= 1
        version = _version.package_version()
        header = f"Server: repro-serve/{version}\r\n".encode("latin-1")
        assert header in first and header in second
        live = LiveServer()
        try:
            status, body = live.request("GET", "/healthz")
        finally:
            live.stop()
        assert status == 200 and body["version"] == version
        assert len(calls) <= 1
    finally:
        _version.package_version.cache_clear()


def test_draining_server_refuses_with_503():
    live = LiveServer()
    try:
        live.app.draining = True
        status, body, headers = live.request_full("GET", "/healthz")
        assert status == 503 and "draining" in body["error"]
        assert headers.get("Retry-After") == "1"
    finally:
        live.stop()


# ---------------------------------------------------------------------------
# HTTP timeouts over a raw socket
# ---------------------------------------------------------------------------


def test_idle_connection_times_out_silently():
    import socket

    live = LiveServer(serve_kwargs={"idle_timeout_s": 0.2})
    try:
        with socket.create_connection(("127.0.0.1", live.port), timeout=5) as sock:
            sock.settimeout(5)
            # Send nothing: the server closes the idle connection without
            # writing a response.
            assert sock.recv(1024) == b""
    finally:
        live.stop()


def test_stalled_request_answers_408():
    import socket

    live = LiveServer(serve_kwargs={"read_timeout_s": 0.2})
    try:
        with socket.create_connection(("127.0.0.1", live.port), timeout=5) as sock:
            sock.settimeout(5)
            # Request line arrives, then the client stalls mid-headers.
            sock.sendall(b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n")
            data = sock.recv(4096)
        assert b"408" in data.split(b"\r\n", 1)[0]
    finally:
        live.stop()


def test_complete_requests_unaffected_by_timeouts():
    live = LiveServer(serve_kwargs={"idle_timeout_s": 5.0, "read_timeout_s": 5.0})
    try:
        status, body = live.request("GET", "/healthz")
        assert status == 200 and body["ok"]
    finally:
        live.stop()
