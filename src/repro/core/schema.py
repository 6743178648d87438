"""Function schemas: declarations of egglog functions and relations.

An egglog function (Section 3.2 of the paper) is a map from argument tuples
to a single output value, with a *merge expression* that says how to repair a
functional-dependency violation when the same (canonicalized) arguments end
up with two different outputs, and a *default expression* used when a term is
evaluated before the function is defined on it ("get-or-default").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

from .values import Value

# A merge function combines the old and the new output value into the value
# that should be stored.  The engine takes care of performing the union when
# the output sort is an eq-sort and no merge function is given.
MergeFn = Callable[[Value, Value], Value]

# A default function produces the output value for a not-yet-defined key.  It
# receives the argument tuple (canonicalized) so defaults may depend on it.
DefaultFn = Callable[[Tuple[Value, ...]], Value]

MERGE_UNION = "union"
MERGE_ERROR = "error"


@dataclass
class FunctionDecl:
    """Declaration of an egglog function.

    Attributes:
        name: unique function symbol.
        arg_sorts: names of the argument sorts.
        out_sort: name of the output sort.
        merge: how to resolve functional-dependency conflicts, as data:
            ``"union"`` (only valid for eq-sort outputs), ``"error"``, a
            binary primitive's name, a :class:`~repro.core.terms.Term` over
            the variables ``old`` and ``new``, or a Python callable
            ``(old, new) -> merged``.  The engine fills in ``None`` at
            declaration time (the paper's defaults: union for eq-sorted
            outputs, error otherwise) and builds the code that runs a merge
            (``EGraph.merge_fn``).
        default: output for missing keys.  ``None`` means: fresh id for
            eq-sort outputs (the "make-set" default from the paper), unit for
            Unit outputs, and an error for other primitive outputs.  A
            constant :class:`Value` or a callable over the argument tuple may
            be supplied instead.
        cost: per-node cost used by extraction.
        unextractable: if True, extraction never picks this function.
        is_datatype_constructor: marks constructors introduced by
            ``datatype`` sugar (used by extraction and pretty printing).
        decl_site: where the declaration came from — a ``file:line`` string
            for embedded-DSL declarations, a source location for .egg
            programs, or empty when unknown.  Surfaced in diagnostics so a
            bad *use* can point back at its *declaration*.
    """

    name: str
    arg_sorts: Tuple[str, ...]
    out_sort: str
    merge: object = None
    default: object = None
    cost: int = 1
    unextractable: bool = False
    is_datatype_constructor: bool = False
    decl_site: str = ""

    def __post_init__(self) -> None:
        self.arg_sorts = tuple(self.arg_sorts)

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def signature(self) -> str:
        args = " ".join(self.arg_sorts)
        return f"({self.name} ({args}) {self.out_sort})"


@dataclass
class RunReport:
    """Statistics about one call to ``EGraph.run``.

    One report covers one or more search → apply → rebuild iterations of the
    semi-naïve scheduler (Section 4.3).  ``saturated`` means the last
    iteration changed nothing — the fixpoint was reached.
    """

    iterations: int = 0
    saturated: bool = False
    search_time: float = 0.0
    apply_time: float = 0.0
    rebuild_time: float = 0.0
    num_matches: int = 0
    updated: bool = False
    per_rule_matches: dict = field(default_factory=dict)
    #: Delta searches skipped because the atom's table had no rows newer
    #: than the rule's watermark (the scheduler's zero-delta short-circuit).
    delta_skips: int = 0
    #: Why the run stopped early, if a budget cut it short: ``"deadline"``
    #: (wall-clock budget exhausted) or ``"max-nodes"`` (node-count cap
    #: reached).  Empty when the run completed normally (saturation or the
    #: iteration limit).  Budgets are checked *between* iterations, so the
    #: report always describes a consistent database — the run never stops
    #: mid-iteration.
    stopped_reason: str = ""

    @property
    def total_time(self) -> float:
        """Total wall-clock time across all three phases."""
        return self.search_time + self.apply_time + self.rebuild_time

    def summary(self) -> str:
        """One-line human-readable digest, for examples and logs."""
        if self.stopped_reason:
            status = f"stopped: {self.stopped_reason}"
        elif self.saturated:
            status = "saturated"
        else:
            status = "iteration limit"
        return (
            f"{self.iterations} iteration(s), {self.num_matches} match(es), "
            f"{status}, {self.total_time * 1000:.1f} ms "
            f"(search {self.search_time * 1000:.1f} / apply {self.apply_time * 1000:.1f} "
            f"/ rebuild {self.rebuild_time * 1000:.1f})"
        )

    def merge_with(self, other: "RunReport") -> None:
        """Accumulate another report (e.g. one iteration) into this one."""
        self.iterations += other.iterations
        self.saturated = other.saturated
        self.search_time += other.search_time
        self.apply_time += other.apply_time
        self.rebuild_time += other.rebuild_time
        self.num_matches += other.num_matches
        self.updated = self.updated or other.updated
        self.delta_skips += other.delta_skips
        self.stopped_reason = other.stopped_reason or self.stopped_reason
        for name, count in other.per_rule_matches.items():
            self.per_rule_matches[name] = self.per_rule_matches.get(name, 0) + count
