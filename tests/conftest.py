"""Shared fixtures.

The engine reads each query's plan shape off its body
(``repro.core.compile.CompiledQuery`` calls ``is_acyclic``).
:func:`forced_executor` overrides that reading by patching ``is_acyclic``
— ``True`` forces the index-nested-loop shape, ``False`` generic join —
and clears the process-wide plan cache on entry and exit, so no plan
compiled under the other reading survives.  The ``executor`` fixture runs
a test once per shape through it.
"""

from contextlib import contextmanager

import pytest

from repro.core import compile as compile_module
from repro.engine.compilecache import CACHE

EXECUTORS = ["indexed", "generic"]


@contextmanager
def forced_executor(name):
    assert name in EXECUTORS, name
    shape = name == "indexed"
    original = compile_module.is_acyclic
    compile_module.is_acyclic = lambda atoms: shape
    CACHE.clear()
    try:
        yield name
    finally:
        compile_module.is_acyclic = original
        CACHE.clear()


@pytest.fixture(params=EXECUTORS)
def executor(request):
    with forced_executor(request.param) as name:
        yield name
