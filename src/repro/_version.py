"""Single source of the package version.

``__version__`` is the in-tree fallback; :func:`package_version` prefers
the installed distribution's metadata (``pip install -e .`` keeps the two
in sync via ``pyproject.toml``) so ``--version`` flags and snapshot/BENCH
metadata report what is actually installed, while source checkouts run
from ``PYTHONPATH`` still get a sensible answer.
"""

from __future__ import annotations

from functools import lru_cache

__version__ = "0.1.0"

#: The distribution name declared in pyproject.toml.
DISTRIBUTION = "egglog-repro"


@lru_cache(maxsize=None)
def package_version() -> str:
    """The installed version of this package, or the in-tree fallback.

    Resolved once per process: without an installed distribution (a
    ``PYTHONPATH`` checkout), ``importlib.metadata.version`` scans every
    ``sys.path`` entry on each call, and the server names the version in
    every response's ``Server:`` header.
    """
    try:
        from importlib import metadata

        return metadata.version(DISTRIBUTION)
    except Exception:
        return __version__
