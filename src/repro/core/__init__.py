"""Core substrate of the egglog reproduction.

These modules implement the building blocks the paper's engine is made of:

* :mod:`repro.core.unionfind` — the equivalence relation (Section 3.3)
* :mod:`repro.core.values` — sorts and runtime values
* :mod:`repro.core.schema` — function declarations with merge/default
  expressions (Section 3.2) and run reports
* :mod:`repro.core.database` — the timestamped functional database
  (Section 5.1)
* :mod:`repro.core.terms` — tree-shaped terms and patterns
* :mod:`repro.core.query` — conjunctive query data types
* :mod:`repro.core.compile` — the compiled join executor, whose plans take
  the index-nested-loop or the generic-join shape (relational e-matching)
* :mod:`repro.core.builtins` — primitive sorts and operations (Section 5.2)
"""

from .builtins import PrimitiveRegistry, default_registry
from .database import Row, Table
from .query import PrimAtom, Query, QVar, Substitution, TableAtom
from .schema import FunctionDecl, RunReport
from .terms import App, L, Term, TermApp, TermLit, TermVar, V, as_term
from .unionfind import UnionFind
from .values import (
    BOOL,
    BUILTIN_SORTS,
    F64,
    I64,
    RATIONAL,
    STRING,
    UNIT,
    UNIT_VALUE,
    EqSort,
    PrimitiveSort,
    Sort,
    Value,
    boolean,
    f64,
    from_python,
    i64,
    rational,
    string,
)

__all__ = [
    "App",
    "BOOL",
    "BUILTIN_SORTS",
    "EqSort",
    "F64",
    "FunctionDecl",
    "I64",
    "L",
    "PrimAtom",
    "PrimitiveRegistry",
    "PrimitiveSort",
    "Query",
    "QVar",
    "RATIONAL",
    "Row",
    "RunReport",
    "STRING",
    "Sort",
    "Substitution",
    "Table",
    "TableAtom",
    "Term",
    "TermApp",
    "TermLit",
    "TermVar",
    "UNIT",
    "UNIT_VALUE",
    "UnionFind",
    "V",
    "Value",
    "as_term",
    "boolean",
    "default_registry",
    "f64",
    "from_python",
    "i64",
    "rational",
    "string",
]
