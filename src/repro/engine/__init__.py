"""The egglog engine: rules, actions, rebuilding, scheduling, extraction.

This package turns the substrate in :mod:`repro.core` into the unified
Datalog + equality-saturation engine of the paper:

* :mod:`repro.engine.actions` — rule right-hand sides and merge resolution
* :mod:`repro.engine.rule` — rules, facts, and rewrite/birewrite sugar
* :mod:`repro.engine.rebuild` — congruence-closure rebuilding (Section 4)
* :mod:`repro.engine.scheduler` — semi-naïve fixpoint iteration (Section 4.3)
* :mod:`repro.engine.schedule` — run-schedule combinators (saturate/seq/repeat)
* :mod:`repro.engine.egraph` — the user-facing :class:`EGraph` facade
"""

from .actions import Action, Delete, Expr, Let, Panic, Set, Union
from .budget import STOP_DEADLINE, STOP_MAX_NODES, Budget
from .egraph import EGraph
from .errors import CheckError, EGraphError, EGraphPanic, ExtractError, MergeError
from .rule import (
    DEFAULT_RULESET,
    CompiledRule,
    EqFact,
    Rule,
    birewrite,
    eq,
    rewrite,
)
from .schedule import Repeat, Run, Saturate, Schedule, Seq, repeat, saturate, seq
from .scheduler import Scheduler

__all__ = [
    "Action",
    "Budget",
    "CheckError",
    "CompiledRule",
    "DEFAULT_RULESET",
    "Delete",
    "EGraph",
    "EGraphError",
    "EGraphPanic",
    "EqFact",
    "Expr",
    "ExtractError",
    "Let",
    "MergeError",
    "Panic",
    "Repeat",
    "Rule",
    "Run",
    "STOP_DEADLINE",
    "STOP_MAX_NODES",
    "Saturate",
    "Schedule",
    "Scheduler",
    "Seq",
    "Set",
    "Union",
    "birewrite",
    "eq",
    "repeat",
    "rewrite",
    "saturate",
    "seq",
]
