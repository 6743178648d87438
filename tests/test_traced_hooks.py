"""Every layer that ``perfbench/traced_server.py`` wraps still records spans.

The traced launcher swaps engine, session and server functions by name.
When a refactor stops calling one of them, that layer silently reads 0 and
the benchmark's correctness-only smoke stays green.  This test installs the
tracer in a subprocess (it patches classes for the whole process), serves
the app on a loopback socket, and drives the three benchmark shapes over
real HTTP: a lookup-shaped JSON program, an infer-shaped ``.egg`` batch and
a fork.  Each wrapped layer must then hold at least one span.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

LAYERS = (
    "http_read",
    "json_decode",
    "queue_wait",
    "dispatch",
    "lock_wait",
    "txn_capture",
    "fork",
    "egg_parse",
    "run",
    "search",
    "run_rebuild",
    "rebuild_call",
    "query",
    "extract",
    "explain",
    "index_build",
    "response_encode",
)

SCRIPT = r"""
import asyncio, http.client, json, sys, threading
sys.path.insert(0, "perfbench")
import traced_server
from workloads import PROGRAM_HEAD, lit, path_term
from repro.server import App, serve

tracer = traced_server.Tracer()
traced_server.install(tracer)
app = App()
loop = asyncio.new_event_loop()
server = loop.run_until_complete(serve(app.handle, "127.0.0.1", 0))
port = server.sockets[0].getsockname()[1]
threading.Thread(target=loop.run_forever, daemon=True).start()

def post(path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("POST", path, body=json.dumps(body))
    response = conn.getresponse()
    answer = json.loads(response.read())
    conn.close()
    assert response.status in (200, 201), (path, response.status, answer)
    return answer

base = PROGRAM_HEAD + "\n".join(
    ["(edge 1 2) (edge 2 3) (edge 3 4)",
     "(union (TArrow (TVar \"a\") (TInt)) (TArrow (TBool) (TVar \"b\")))",
     "(run 100)"])
post("/bases", {"name": "base", "program": base})
sid = post("/sessions", {"base": "base"})["session"]["id"]
lookup = post(f"/sessions/{sid}/program", {"ops": [
    {"op": "check", "facts": [["=", path_term(1, 3), lit(2)]]},
    {"op": "check", "facts": [path_term(3, 1)]},
    {"op": "extract", "term": path_term(1, 4)},
]})
assert [r.get("ok") for r in lookup["results"][:2]] == [True, False], lookup
infer = post(f"/sessions/{sid}/egg", {"program": "\n".join([
    "(union (TArrow (TVar \"c\") (TInt)) (TArrow (TInt) (TVar \"d\")))",
    "(run 20)",
    "(check (= (TVar \"c\") (TInt)))",
    "(extract (TVar \"d\"))",
    "(explain (TVar \"d\") (TInt))",
])})
assert infer["lines"][1:3] == ["check: ok (1 match(es))", "extract: (TInt) (cost 1)"], infer
post(f"/sessions/{sid}/fork", {})
print(json.dumps(tracer.summary()["calls"]))
"""


def test_every_traced_layer_records_spans():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.strip().splitlines()[-1])
    missing = [layer for layer in LAYERS if not calls.get(layer)]
    assert not missing, f"no spans for {missing}; calls: {calls}"
