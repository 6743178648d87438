"""The semi-naïve rule scheduler (Section 4.3).

One engine iteration has three phases, mirroring Figure 9 of the paper:

1. **Search** every rule's query against the current database.  A rule
   remembers ``last_run`` — the timestamp watermark of its previous search —
   and only wants matches that involve at least one row inserted or updated
   since then.  That delta restriction is implemented by running the query
   once per atom with that atom restricted to new rows (``delta_atom`` /
   ``since`` in the search functions) and deduplicating the union of the
   results; a match made entirely of old rows was already found in an
   earlier iteration.  A delta run whose atom has *zero* new rows since the
   watermark is skipped outright, before any index work.
2. **Apply** every match's actions (``repro.engine.actions``).  The global
   timestamp is bumped first, so rows written in this phase are visible as
   "new" to every rule's next search.
3. **Rebuild** congruence closure (``repro.engine.rebuild``).

Matches are collected for *all* rules before any action runs, so rules
within an iteration see the same database snapshot.  The run saturates when
an iteration changes nothing: no inserts, no output updates, no unions, no
deletes.

Rules run through their **compiled executors** (``EGraph.rule_exec`` →
``repro.engine.program`` / ``repro.core.compile``): searches produce
positional match tuples over integer slots, delta dedup hashes those
tuples directly, and the apply phase fires each rule's precompiled action
program — with every table's index maintenance batched until the phase
ends, since nothing reads the indexes while actions run.  The scheduler
prepares no indexes itself: a search asks its tables for the hash indexes
it needs, and each is built on that first request.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from ..core.compile import MatchTuple
from ..core.schema import RunReport
from .budget import Budget
from .errors import EGraphError
from .program import RuleExec
from .rebuild import rebuild
from .rule import DEFAULT_RULESET, CompiledRule
from .schedule import Repeat, Run, Saturate, Schedule, Seq

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph


class Scheduler:
    """Runs rulesets to saturation or an iteration limit over one e-graph."""

    def __init__(self, egraph: "EGraph") -> None:
        self.egraph = egraph

    # -- searching ------------------------------------------------------------

    def search_rule(
        self,
        rule: CompiledRule,
        report: Optional[RunReport] = None,
        exec_: Optional[RuleExec] = None,
    ) -> List[MatchTuple]:
        """All matches of ``rule`` that involve rows newer than its watermark.

        On a rule's first run (``last_run == 0``) this is a plain full
        search.  Afterwards it is the semi-naïve delta: the union over atoms
        ``i`` of the query with atom ``i`` restricted to rows stamped at or
        after ``last_run``, deduplicated (a match containing several new rows
        is produced once per new atom).  Atoms whose tables have no new rows
        since the watermark contribute nothing and are short-circuited
        before any per-query work.

        Matches come back as positional tuples in the rule's compiled slot
        order (``exec_.slot_names``); dedup across delta atoms hashes those
        canonical tuples directly instead of sorting dict items per match.
        """
        egraph = self.egraph
        query = rule.query
        if exec_ is None:
            exec_ = egraph.rule_exec(rule)
        if not query.atoms:
            # A rule with no table atoms can never produce new matches after
            # its first firing; run it exactly once.
            if rule.last_run > 0:
                return []
            return exec_.search_full(egraph.tables)
        if rule.last_run <= 0:
            return exec_.search_full(egraph.tables)
        matches: List[MatchTuple] = []
        seen: Set[MatchTuple] = set()
        for index, atom in enumerate(query.atoms):
            table = egraph.tables.get(atom.func)
            if table is None or not table.has_new(rule.last_run):
                if report is not None:
                    report.delta_skips += 1
                continue
            exec_.search_delta(egraph.tables, index, rule.last_run, seen, matches)
        return matches

    # -- iterating ------------------------------------------------------------

    def run_iteration(self, ruleset: str = DEFAULT_RULESET) -> RunReport:
        """Run one search → apply → rebuild iteration of ``ruleset``."""
        egraph = self.egraph
        rule_names = egraph.rulesets.get(ruleset)
        if rule_names is None:
            raise EGraphError(f"unknown ruleset {ruleset!r}")
        rules = [egraph.rules[name] for name in rule_names]
        report = RunReport(iterations=1)
        updates_before = egraph.updates

        # Pending user unions would make the search see a non-canonical
        # database; repair first (no-op when nothing is dirty).
        start = time.perf_counter()
        rebuild(egraph)
        report.rebuild_time += time.perf_counter() - start

        # Phase 1: search (all rules see the same snapshot).  Each rule runs
        # through its compiled executor: positional plans, slot registers,
        # and a precompiled action program (``repro.engine.program``).
        searched: List[Tuple[CompiledRule, RuleExec, List[MatchTuple]]] = []
        for rule in rules:
            start = time.perf_counter()
            exec_ = egraph.rule_exec(rule)
            matches = self.search_rule(rule, report, exec_)
            report.search_time += time.perf_counter() - start
            report.num_matches += len(matches)
            report.per_rule_matches[rule.name] = len(matches)
            searched.append((rule, exec_, matches))

        # Phase 2: apply.  Bump the timestamp so writes from this iteration
        # are the next iteration's delta.  No search touches the indexes
        # until the next phase, so every table defers its index
        # maintenance and flushes one net update per written key.
        egraph.timestamp += 1
        start = time.perf_counter()
        for table in egraph.tables.values():
            table.begin_batch()
        try:
            for rule, exec_, matches in searched:
                execute = exec_.program.execute
                # Compiled union ops carry the rule's justification baked in
                # (``RuleExec.reason``); the ambient reason additionally
                # covers unions reached indirectly — e.g. merge-fn unions
                # triggered by this rule's ``set`` actions.
                prev_reason = egraph.set_union_reason(exec_.reason)
                try:
                    for match in matches:
                        execute(match)
                finally:
                    egraph.set_union_reason(prev_reason)
                rule.last_run = egraph.timestamp
        finally:
            for table in egraph.tables.values():
                table.end_batch()
        report.apply_time += time.perf_counter() - start

        # Phase 3: rebuild congruence closure.
        start = time.perf_counter()
        rebuild(egraph)
        report.rebuild_time += time.perf_counter() - start

        report.updated = egraph.updates != updates_before
        report.saturated = not report.updated
        return report

    def run(
        self,
        limit: int = 1,
        ruleset: str = DEFAULT_RULESET,
        budget: Optional[Budget] = None,
    ) -> RunReport:
        """Run up to ``limit`` iterations, stopping early on saturation.

        A :class:`Budget` is consulted *before* each iteration: when a cap is
        hit the loop stops cleanly with ``stopped_reason`` set on the (then
        partial) report.  The check-before granularity means one iteration
        may overshoot ``max_nodes``, but the database is always left in the
        consistent state of the last completed iteration.
        """
        total = RunReport()
        for _ in range(limit):
            if budget is not None:
                reason = budget.exhausted(self.egraph)
                if reason is not None:
                    total.stopped_reason = reason
                    break
            iteration = self.run_iteration(ruleset)
            total.merge_with(iteration)
            if iteration.saturated:
                break
        return total

    # -- schedules -------------------------------------------------------------

    def run_schedule(
        self, schedule: Schedule, budget: Optional[Budget] = None
    ) -> RunReport:
        """Interpret a :mod:`repro.engine.schedule` combinator tree.

        The budget threads through every combinator: a ``Seq`` stops after
        the sub-schedule that exhausted it, ``Repeat``/``Saturate`` stop
        after the pass that did.  ``stopped_reason`` propagates up through
        :meth:`RunReport.merge_with`.
        """
        if isinstance(schedule, Run):
            return self.run(schedule.limit, schedule.ruleset, budget)
        if isinstance(schedule, Seq):
            total = RunReport()
            for sub in schedule.schedules:
                total.merge_with(self.run_schedule(sub, budget))
                if total.stopped_reason:
                    break
            return total
        if isinstance(schedule, Repeat):
            total = RunReport()
            for _ in range(schedule.times):
                if self._run_pass(schedule.schedules, total, budget):
                    break
            return total
        if isinstance(schedule, Saturate):
            total = RunReport()
            while not self._run_pass(schedule.schedules, total, budget):
                pass
            return total
        raise EGraphError(f"unknown schedule {schedule!r}")

    def _run_pass(
        self,
        schedules: Tuple[Schedule, ...],
        total: RunReport,
        budget: Optional[Budget] = None,
    ) -> bool:
        """One pass over ``schedules``; True iff the enclosing loop must stop
        (the pass changed nothing, or a budget cut it short)."""
        updates_before = self.egraph.updates
        for sub in schedules:
            total.merge_with(self.run_schedule(sub, budget))
            if total.stopped_reason:
                # Not a fixpoint claim: the pass was cut short, so whether
                # the database is quiescent is unknown.  ``saturated`` keeps
                # whatever the last completed run reported.
                return True
        quiescent = self.egraph.updates == updates_before
        total.saturated = quiescent
        return quiescent
