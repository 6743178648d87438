"""Process-level cache of compiled query plans, shared across engines.

PR 5 cached each rule's compiled executor *on the rule object*, which is
the right lifetime for a single engine but the wrong one for a session
service: a hundred sessions forked from one base each carry fresh
``CompiledRule`` objects (``EGraph.fork`` gives the child its own, since a
rule's watermark and executor belong to one engine), so every fork would
recompile every rule's query plan from scratch.

The split that makes sharing sound: a rule's executor has an
**engine-independent** half and an **engine-bound** half.

* The query plan — slot assignment (:func:`~repro.core.compile.assign_slots`)
  plus the compiled search (:class:`~repro.core.compile.CompiledQuery`) —
  closes over nothing but the query structure and the primitive registry.
  ``search`` receives the tables per call, so one plan serves any engine
  that shares the registry.  That half lives here, in one process-wide LRU
  keyed by (structural query fingerprint, registry identity, registry
  version).  The plan shape is read off the query's body
  (:func:`~repro.core.compile.is_acyclic`), so the fingerprint determines
  it.
* The action program (:func:`~repro.engine.program.compile_actions`) captures
  the engine's tables, declarations, and counters — it stays per-engine,
  rebuilt by each :class:`~repro.engine.program.RuleExec`.

Keying on the *structural* fingerprint (the query's deterministic repr)
rather than the rule name means two sessions — or two differently-named
rules — with identical queries share one plan.  The registry component uses
``id()`` plus the registry's monotone :attr:`~repro.core.builtins
.PrimitiveRegistry.version`: every cache entry strong-references its
registry, so an id cannot be reused while any entry for it is alive, and
registering a new primitive overload bumps the version, orphaning plans
that may have scheduled the old resolution.

One-off queries (``EGraph.search``) build a :class:`CompiledPlan`
directly instead of going through the cache: a served ``lookup`` sends
many distinct ground checks, and caching them would fill the LRU with
single-use plans and skew its hit rate.

Thread safety: the cache itself is lock-protected, and the cached plan
objects are safe to *use* concurrently — their only mutation is the
idempotent, last-write-wins ``_plans`` build inside the executor (keyed by
``(delta atom, atom order)``, value identical for a given key).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

from ..core.builtins import PrimitiveRegistry
from ..core.compile import CompiledQuery, assign_slots
from ..core.query import Query

#: Cache key: (registry id, registry version, query fingerprint).
PlanKey = Tuple[int, int, str]


class CompiledPlan:
    """The engine-independent half of a rule executor (see module docs);
    also the whole executor of a one-off query."""

    __slots__ = ("slot_of", "slot_names", "n_slots", "query_exec", "registry")

    def __init__(self, query: Query, registry: PrimitiveRegistry) -> None:
        slot_of, slot_names = assign_slots(query)
        self.slot_of = slot_of
        self.slot_names = slot_names
        self.n_slots = len(slot_names)
        self.query_exec = CompiledQuery(query, slot_of, self.n_slots, registry)
        #: Strong reference pinning the registry for this entry's lifetime —
        #: guarantees the ``id(registry)`` component of the key stays unique.
        self.registry = registry


class CompileCacheRegistry:
    """A bounded, thread-safe LRU of :class:`CompiledPlan` objects.

    One instance serves the whole process (module-level :data:`CACHE`);
    separate instances exist only for tests.  ``maxsize`` bounds memory on
    pathological rule churn — real workloads have a few dozen distinct
    queries and never evict.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def plan(self, query: Query, registry: PrimitiveRegistry) -> CompiledPlan:
        """The shared plan for ``query``; compiled on miss.

        Compilation happens outside the lock — two threads missing the same
        key may both compile, but plans for one key are interchangeable and
        the second insert just replaces the first (last-write-wins, no
        corruption).  That keeps an expensive compile from serializing every
        other session's cache hit.
        """
        key: PlanKey = (id(registry), registry.version, repr(query))
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return cached
            self._misses += 1
        built = CompiledPlan(query, registry)
        with self._lock:
            self._plans[key] = built
            self._plans.move_to_end(key)
            while len(self._plans) > self._maxsize:
                self._plans.popitem(last=False)
                self._evictions += 1
        return built

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (also served by ``GET /stats``)."""
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self._maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        """Drop every cached plan and reset the counters (tests/benchmarks)."""
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0


#: The process-level plan cache every :class:`~repro.engine.program.RuleExec`
#: consults.  Sessions forked from one base share its registry, so their
#: identical rules hit the same entries instead of recompiling per fork.
CACHE = CompileCacheRegistry()
