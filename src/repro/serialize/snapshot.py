"""The ``repro.snapshot/v1`` document format: whole-engine save and load.

A snapshot is a single JSON document capturing *everything* an
:class:`~repro.engine.egraph.EGraph` observably is:

* declared sorts and the registered literal-coercion pairs,
* function declarations with merge/default/cost/provenance,
* every table's rows with their semi-naïve timestamps, in insertion order
  (extraction tie-breaking and match enumeration depend on row order, so
  the snapshot preserves it),
* the union-find — parents, sizes, dirty set, union count — plus the proof
  forest and the e-node log, so ``explain`` keeps working after a reload,
* compiled rules (flat queries + actions) with their semi-naïve
  watermarks, and rulesets in declaration order,
* the scheduler epoch: current timestamp and update counter.

Derived state — hash indexes, compiled executors, merge-fn
caches, the push/pop stack — is deliberately *not* serialized; the engine
rebuilds all of it lazily on first use, so a loaded engine is exactly as
warm as the database itself.

Document layout::

    {
      "schema":   "repro.snapshot/v1",
      "digest":   "sha256:<hex of canonical meta/state/surfaces/replay>",
      "meta":     {"generator": ..., "proofs": ...},
      "state":    {...engine state as above...},
      "surfaces": {...optional, owned by frontends (egg globals, dsl handles)...},
      "replay":   {...optional recorded schedule + expected facts...}
    }

Loaders ignore ``surfaces`` sections they do not understand and tolerate
additive fields; see ``docs/PERSISTENCE.md`` for the compatibility policy.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .._version import package_version
from ..core.schema import MERGE_ERROR, MERGE_UNION, FunctionDecl
from ..core.terms import Term
from ..core.values import (
    BUILTIN_SORTS,
    Value,
    from_python,
    literal_coercion_pairs,
)
from ..engine.egraph import EGraph as EngineEGraph
from ..engine.errors import EGraphError
from ..engine.rule import DEFAULT_RULESET, CompiledRule
from .encode import (
    Json,
    decode_action,
    decode_justification,
    decode_query,
    decode_term,
    decode_value,
    encode_action,
    encode_justification,
    encode_query,
    encode_term,
    encode_value,
    require,
)
from .errors import SnapshotError, SnapshotFormatError

#: The current snapshot schema identifier.  Bumped only on breaking layout
#: changes; additive changes keep the identifier (see docs/PERSISTENCE.md).
SCHEMA = "repro.snapshot/v1"

#: Document sections covered by the integrity digest, in canonical order.
_DIGESTED = ("meta", "state", "surfaces", "replay")


# ---------------------------------------------------------------------------
# Digest / io
# ---------------------------------------------------------------------------


def compute_digest(document: Dict[str, Any]) -> str:
    """The integrity digest over a document's digested sections.

    The digest hashes the *canonical compact* JSON rendering (sorted keys,
    no whitespace), so it is independent of on-disk pretty-printing.
    """
    payload = {key: document[key] for key in _DIGESTED if key in document}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dumps_document(document: Dict[str, Any]) -> str:
    """Render a snapshot document to its canonical on-disk text."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_snapshot(document: Dict[str, Any], path: str) -> None:
    """Write a snapshot document to ``path``, atomically.

    The document goes to a sibling temp file first (written, flushed, and
    fsynced), then lands via ``os.replace`` — so a crash at any instant
    leaves either the old complete file or the new complete file, never a
    truncated hybrid.  A stale temp file from an earlier crash is simply
    overwritten by the next save; readers never look at it.
    """
    from ..testing.faults import trip

    text = dumps_document(document)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            # Two writes so the "disk died mid-write" injection point fires
            # with a genuinely partial document on disk.
            half = len(text) // 2
            handle.write(text[:half])
            trip("snapshot.write", tag=path)
            handle.write(text[half:])
            handle.flush()
            os.fsync(handle.fileno())
        trip("snapshot.rename", tag=path)
        os.replace(tmp, path)
    except BaseException:
        # Best-effort cleanup; an ``exit``-action fault (or a real crash)
        # skips this, which is exactly the stale-temp case handled above.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_document(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot document from ``path``.

    Raises :class:`SnapshotFormatError` for malformed JSON, an unknown
    schema, or a failed integrity digest.  File-system errors (missing
    file, permissions) propagate as ``OSError`` for the caller to locate.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SnapshotFormatError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict):
        raise SnapshotFormatError(f"{path}: snapshot must be a JSON object")
    validate_document(document, where=path)
    return document


def validate_document(document: Dict[str, Any], *, where: str = "snapshot") -> None:
    """Check the schema identifier and integrity digest of a document."""
    schema = document.get("schema")
    if schema != SCHEMA:
        raise SnapshotFormatError(
            f"{where}: unknown snapshot schema {schema!r} (this build reads {SCHEMA!r})"
        )
    stored = document.get("digest")
    actual = compute_digest(document)
    if stored != actual:
        raise SnapshotFormatError(
            f"{where}: integrity digest mismatch (stored {stored!r}, "
            f"computed {actual!r}) — the snapshot was corrupted or hand-edited"
        )


# ---------------------------------------------------------------------------
# Merge / default codecs (need engine context, hence not in encode.py)
# ---------------------------------------------------------------------------


def _encode_merge(decl: FunctionDecl) -> Json:
    merge = decl.merge
    if merge in (MERGE_UNION, MERGE_ERROR):
        return {"kind": merge}
    if isinstance(merge, str):
        return {"kind": "primitive", "name": merge}
    if isinstance(merge, Term):
        return {"kind": "term", "term": encode_term(merge)}
    where = f" (declared at {decl.decl_site})" if decl.decl_site else ""
    raise SnapshotError(
        f"cannot serialize function {decl.name!r}{where}: its merge is an "
        f"arbitrary Python callable; use a merge primitive name or a "
        f"merge expression instead"
    )


def _decode_merge(engine: EngineEGraph, name: str, obj: Json) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SnapshotFormatError(f"function {name!r}: malformed merge {obj!r}")
    kind = obj["kind"]
    if kind == "union":
        return MERGE_UNION
    if kind == "error":
        return MERGE_ERROR
    if kind == "primitive":
        prim = obj.get("name")
        if not isinstance(prim, str):
            raise SnapshotFormatError(f"function {name!r}: malformed merge {obj!r}")
        if prim not in engine.registry:
            raise SnapshotError(
                f"function {name!r} needs merge primitive {prim!r}, which is "
                f"not registered in this engine"
            )
        return prim
    if kind == "term":
        return decode_term(obj.get("term"))
    raise SnapshotFormatError(f"function {name!r}: unknown merge kind {kind!r}")


def _encode_default(decl: FunctionDecl) -> Json:
    default = decl.default
    if default is None:
        return None
    if callable(default):
        where = f" (declared at {decl.decl_site})" if decl.decl_site else ""
        raise SnapshotError(
            f"cannot serialize function {decl.name!r}{where}: its default is a "
            f"Python callable; use a constant default instead"
        )
    if not isinstance(default, Value):
        default = from_python(default)
    return {"value": encode_value(default)}


def _decode_default(name: str, obj: Json) -> Optional[Value]:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "value" not in obj:
        raise SnapshotFormatError(f"function {name!r}: malformed default {obj!r}")
    return decode_value(obj["value"])


# ---------------------------------------------------------------------------
# Engine -> document
# ---------------------------------------------------------------------------


def engine_document(
    engine: EngineEGraph,
    *,
    surfaces: Optional[Dict[str, Any]] = None,
    replay: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Capture ``engine`` as a complete ``repro.snapshot/v1`` document.

    ``surfaces`` carries frontend-owned state (.egg globals, DSL handle
    metadata); ``replay`` carries a recorded schedule plus expected facts
    for the corpus/warm-start gates.  Both are optional and opaque to the
    engine loader.
    """
    uf_parent, uf_size, uf_dirty, uf_unions, forest = engine.uf.snapshot()
    state: Dict[str, Any] = {
        "sorts": [
            {"name": name, "eq": sort.is_eq_sort}
            for name, sort in engine.sorts.items()
            if name not in BUILTIN_SORTS
        ],
        "coercions": [[src, dst] for src, dst in literal_coercion_pairs()],
        "functions": [
            {
                "name": decl.name,
                "args": list(decl.arg_sorts),
                "out": decl.out_sort,
                "merge": _encode_merge(decl),
                "default": _encode_default(decl),
                "cost": decl.cost,
                "unextractable": decl.unextractable,
                "constructor": decl.is_datatype_constructor,
                "decl_site": decl.decl_site,
            }
            for decl in engine.decls.values()
        ],
        "tables": [
            {
                "name": name,
                "rows": [
                    [
                        [encode_value(col) for col in key],
                        encode_value(row.value),
                        row.timestamp,
                    ]
                    for key, row in table.data.items()
                ],
            }
            for name, table in engine.tables.items()
        ],
        "unionfind": {
            "parent": uf_parent,
            "size": uf_size,
            "dirty": sorted(uf_dirty),
            "n_unions": uf_unions,
        },
        "proofs": _encode_proofs(forest),
        "rules": [
            {
                "name": rule.name,
                "ruleset": rule.ruleset,
                "last_run": rule.last_run,
                "query": encode_query(rule.query),
                "actions": [encode_action(action) for action in rule.actions],
            }
            for rule in engine.rules.values()
        ],
        "rulesets": [
            {"name": name, "rules": list(rules)}
            for name, rules in engine.rulesets.items()
        ],
        "timestamp": engine.timestamp,
        "updates": engine.updates,
    }
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "meta": {
            "generator": f"egglog-repro {package_version()}",
            "proofs": engine.uf.proofs is not None,
        },
        "state": state,
    }
    if surfaces is not None:
        document["surfaces"] = surfaces
    if replay is not None:
        document["replay"] = replay
    document["digest"] = compute_digest(document)
    return document


def _encode_proofs(forest: Optional[tuple]) -> Json:
    if forest is None:
        return None
    parent, edges, log = forest
    return {
        "forest": {
            "parent": list(parent),
            "edges": [encode_justification(edge) for edge in edges],
        },
        "log": [
            [func, [encode_value(col) for col in key], encode_value(value)]
            for (func, key), value in log.items()
        ],
    }


# ---------------------------------------------------------------------------
# Document -> engine
# ---------------------------------------------------------------------------


def engine_from_document(
    document: Dict[str, Any],
    *,
    registry: Any = None,
) -> EngineEGraph:
    """Reconstruct a fresh engine from a validated snapshot document.

    ``registry`` supplies a custom primitive registry; the snapshot's
    functions and rules are validated against it.  A ``meta.strategy``
    written by older builds is ignored: each rule picks its join from the
    shape of its body.
    """
    meta = require(document, "meta", dict, "document")
    state = require(document, "state", dict, "document")
    proofs = bool(meta.get("proofs", True))
    engine = EngineEGraph(registry=registry, proofs=proofs)

    _load_coercions(state)
    _load_sorts(engine, state)
    _load_functions(engine, state)
    _load_unionfind(engine, state, proofs)
    _load_tables(engine, state)
    _load_proof_log(engine, state, proofs)
    _load_rules(engine, state)

    engine.timestamp = require(state, "timestamp", int, "state")
    engine._updates = require(state, "updates", int, "state")
    return engine


def _load_coercions(state: Dict[str, Any]) -> None:
    registered = set(literal_coercion_pairs())
    for pair in require(state, "coercions", list, "state"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SnapshotFormatError(f"malformed coercion pair {pair!r}")
        if (pair[0], pair[1]) not in registered:
            raise SnapshotError(
                f"snapshot needs literal coercion {pair[0]!r} -> {pair[1]!r}, "
                f"which is not registered in this process; import the module "
                f"that registers it before loading"
            )


def _load_sorts(engine: EngineEGraph, state: Dict[str, Any]) -> None:
    for entry in require(state, "sorts", list, "state"):
        name = require(entry, "name", str, "sort")
        if not entry.get("eq", False):
            raise SnapshotFormatError(
                f"sort {name!r}: only eq-sorts are serializable in {SCHEMA}"
            )
        try:
            engine.declare_sort(name)
        except EGraphError as error:
            raise SnapshotFormatError(str(error)) from None


def _load_functions(engine: EngineEGraph, state: Dict[str, Any]) -> None:
    for entry in require(state, "functions", list, "state"):
        name = require(entry, "name", str, "function")
        args = require(entry, "args", list, f"function {name!r}")
        try:
            engine.function(
                name,
                [str(a) for a in args],
                require(entry, "out", str, f"function {name!r}"),
                merge=_decode_merge(engine, name, entry.get("merge")),
                default=_decode_default(name, entry.get("default")),
                cost=require(entry, "cost", int, f"function {name!r}"),
                unextractable=bool(entry.get("unextractable", False)),
                is_datatype_constructor=bool(entry.get("constructor", False)),
                decl_site=str(entry.get("decl_site", "")),
            )
        except EGraphError as error:
            raise SnapshotFormatError(str(error)) from None


def _load_unionfind(engine: EngineEGraph, state: Dict[str, Any], proofs: bool) -> None:
    section = require(state, "unionfind", dict, "state")
    parent = require(section, "parent", list, "unionfind")
    size = require(section, "size", list, "unionfind")
    if len(parent) != len(size):
        raise SnapshotFormatError("unionfind parent/size arrays disagree in length")
    forest_state: Optional[tuple] = None
    if proofs:
        proofs_section = state.get("proofs")
        if not isinstance(proofs_section, dict):
            raise SnapshotFormatError(
                "meta.proofs is true but the snapshot has no proofs section"
            )
        forest = require(proofs_section, "forest", dict, "proofs")
        f_parent = require(forest, "parent", list, "proof forest")
        f_edges = require(forest, "edges", list, "proof forest")
        if len(f_parent) != len(parent) or len(f_edges) != len(parent):
            raise SnapshotFormatError(
                "proof forest arrays disagree with the union-find in length"
            )
        forest_state = (
            list(f_parent),
            [decode_justification(edge) for edge in f_edges],
            {},  # the node log follows the tables (_load_proof_log)
        )
    engine.uf.restore(
        (
            list(parent),
            list(size),
            set(require(section, "dirty", list, "unionfind")),
            require(section, "n_unions", int, "unionfind"),
            forest_state,
        )
    )


def _load_tables(engine: EngineEGraph, state: Dict[str, Any]) -> None:
    for entry in require(state, "tables", list, "state"):
        name = require(entry, "name", str, "table")
        table = engine.tables.get(name)
        if table is None:
            raise SnapshotFormatError(f"table {name!r} has no matching function")
        rows: List[Tuple[Tuple[Value, ...], Value, int]] = []
        for row in require(entry, "rows", list, f"table {name!r}"):
            if not isinstance(row, list) or len(row) != 3 or not isinstance(row[2], int):
                raise SnapshotFormatError(f"table {name!r}: malformed row {row!r}")
            key = tuple(decode_value(col) for col in row[0])
            if len(key) != table.arity:
                raise SnapshotFormatError(
                    f"table {name!r}: row arity {len(key)} != declared {table.arity}"
                )
            rows.append((key, decode_value(row[1]), row[2]))
        table.load_rows(rows)


def _load_proof_log(engine: EngineEGraph, state: Dict[str, Any], proofs: bool) -> None:
    if not proofs:
        return
    section = require(state, "proofs", dict, "state")
    log: Dict[Tuple[str, Tuple[Value, ...]], Value] = {}
    for entry in require(section, "log", list, "proofs"):
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[0], str):
            raise SnapshotFormatError(f"malformed proof-log entry {entry!r}")
        key = tuple(decode_value(col) for col in entry[1])
        log[(entry[0], key)] = decode_value(entry[2])
    assert engine.uf.proofs is not None  # the engine was built with proofs
    engine.uf.proofs.nodes = log


def _load_rules(engine: EngineEGraph, state: Dict[str, Any]) -> None:
    for entry in require(state, "rules", list, "state"):
        name = require(entry, "name", str, "rule")
        query = decode_query(require(entry, "query", dict, f"rule {name!r}"))
        for atom in query.atoms:
            if atom.func not in engine.decls:
                raise SnapshotFormatError(
                    f"rule {name!r} matches unknown function {atom.func!r}"
                )
        actions = tuple(
            decode_action(a) for a in require(entry, "actions", list, f"rule {name!r}")
        )
        rule = CompiledRule(
            name=name,
            query=query,
            actions=actions,
            ruleset=str(entry.get("ruleset", DEFAULT_RULESET)),
            last_run=require(entry, "last_run", int, f"rule {name!r}"),
        )
        try:
            engine._validate_rule(rule)
        except EGraphError as error:
            raise SnapshotFormatError(str(error)) from None
        if name in engine.rules:
            raise SnapshotFormatError(f"duplicate rule {name!r} in snapshot")
        engine.rules[name] = rule

    rulesets: Dict[str, List[str]] = {}
    for entry in require(state, "rulesets", list, "state"):
        rs_name = require(entry, "name", str, "ruleset")
        members = require(entry, "rules", list, f"ruleset {rs_name!r}")
        for member in members:
            if member not in engine.rules:
                raise SnapshotFormatError(
                    f"ruleset {rs_name!r} lists unknown rule {member!r}"
                )
        rulesets[rs_name] = [str(m) for m in members]
    rulesets.setdefault(DEFAULT_RULESET, [])
    engine.rulesets = rulesets


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def save_engine(
    engine: EngineEGraph,
    path: str,
    *,
    surfaces: Optional[Dict[str, Any]] = None,
    replay: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Snapshot ``engine`` to ``path``; returns the written document."""
    document = engine_document(engine, surfaces=surfaces, replay=replay)
    write_snapshot(document, path)
    return document


def load_engine(
    path: str,
    *,
    registry: Any = None,
) -> Tuple[EngineEGraph, Dict[str, Any]]:
    """Load ``path``; returns the reconstructed engine and the document."""
    document = read_document(path)
    engine = engine_from_document(document, registry=registry)
    return engine, document
