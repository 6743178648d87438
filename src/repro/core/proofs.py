"""Proof forest: per-union justifications and explanation extraction.

egglog inherits egg's proof/explanation machinery: alongside the union-find
it keeps a *proof forest* — a second forest over the same ids whose edges are
never path-compressed and each carry a :class:`Justification` recording *why*
the two endpoints were merged (an explicit ``union`` action, a named rule
firing, or a congruence step ``a = b ==> f(a) = f(b)`` during rebuilding).

The union-find's trees answer "are these equal?" in near-constant time; the
proof forest answers "why are these equal?".  Within one equivalence class
the proof forest is a free tree over the class's members, so the *minimal*
explanation of ``a = b`` is the unique tree path between them
(:meth:`ProofForest.explain_path`), found by walking both ids to the root
and splicing at the lowest common ancestor.

Recording an edge uses egg's re-rooting trick: to add ``a —just— b`` when
``a`` already has a parent, reverse the path from ``a`` to its current root
(shifting each edge's justification one hop toward the old root) so ``a``
becomes the root of its tree, then hang ``a`` under ``b``.  Re-rooting
preserves every existing tree path, so earlier justifications survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

# Justification kinds.
RULE = "rule"
CONGRUENCE = "congruence"
EXPLICIT_KIND = "union"


@dataclass(frozen=True)
class Justification:
    """Why a single union happened.

    ``kind`` is one of ``"rule"`` (a named rule's action fired),
    ``"congruence"`` (rebuilding merged the outputs of two rows whose keys
    canonicalized together; ``name`` is the function), or ``"union"`` (an
    explicit user/program union; ``name`` is empty).
    """

    kind: str
    name: str = ""

    def describe(self) -> str:
        """Human-readable rendering, used by the .egg frontend printer."""
        if self.name:
            return f"{self.kind} {self.name}"
        return self.kind


#: The ambient justification for unions nobody claimed: explicit merges.
EXPLICIT = Justification(EXPLICIT_KIND)


# Justifications are interned per name: rebuilding constructs one per
# repaired table per round, which would otherwise dominate small rounds.
_RULE_CACHE: Dict[str, Justification] = {}
_CONGRUENCE_CACHE: Dict[str, Justification] = {}


def rule_justification(name: str) -> Justification:
    """Justification for a union performed by rule ``name``'s actions."""
    just = _RULE_CACHE.get(name)
    if just is None:
        just = _RULE_CACHE[name] = Justification(RULE, name)
    return just


def congruence_justification(func: str) -> Justification:
    """Justification for a congruence merge on function ``func``."""
    just = _CONGRUENCE_CACHE.get(func)
    if just is None:
        just = _CONGRUENCE_CACHE[func] = Justification(CONGRUENCE, func)
    return just


@dataclass(frozen=True)
class ProofStep:
    """One edge of an explanation chain: ``lhs`` ~ ``rhs`` because of ``justification``."""

    lhs: int
    rhs: int
    justification: Justification


@dataclass(frozen=True)
class Explanation:
    """A rewrite chain proving ``lhs`` ~ ``rhs`` within sort ``sort``.

    ``steps`` is a connected chain: ``steps[0].lhs == lhs``,
    ``steps[-1].rhs == rhs`` and each step's ``rhs`` is the next step's
    ``lhs``.  An empty chain proves the reflexive case ``lhs == rhs``.
    """

    sort: str
    lhs: int
    rhs: int
    steps: Tuple[ProofStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


class ProofForest:
    """Justification-carrying forest over dense integer ids ``0..n-1``.

    Kept in lockstep with a :class:`~repro.core.unionfind.UnionFind`: every
    ``make_set`` grows both, every merging union records exactly one edge
    here (between the *original* ids the caller named, not their canonical
    roots — that keeps the forest connected within each class).  Edges are
    never compressed, so justifications are never lost.

    :attr:`nodes` is the proof-node log: ``(func, key-as-first-inserted) ->
    raw output`` for every eq-sorted insertion.  Rebuilding canonicalizes
    rows and merges congruent ones, which destroys the original e-node ids
    in the database; explanations need them (the edges join *original*
    ids), so the engine remembers each one here.  The log is append-only
    (the first recording wins), which lets a capture restore it by length.

    While the owning union-find holds a live capture, :meth:`record`
    journals the old parent and edge of every id below ``_frozen`` before
    overwriting it (see ``UnionFind.mark``).
    """

    __slots__ = ("_parent", "_edge", "nodes", "_undo", "_frozen")

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._edge: List[Optional[Justification]] = []
        self.nodes: Dict[Tuple[str, tuple], Any] = {}
        #: The owning union-find's undo journal and its freeze line; ids
        #: below ``_frozen`` existed when the newest live capture was taken.
        self._undo: List[Tuple[list, int, Any]] = []
        self._frozen = 0

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Add a fresh singleton tree; returns the new id."""
        ident = len(self._parent)
        self._parent.append(ident)
        self._edge.append(None)
        return ident

    # -- recording -------------------------------------------------------------

    def record(self, a: int, b: int, justification: Justification) -> None:
        """Record that ``a`` and ``b`` were merged because of ``justification``.

        Called once per *merging* union (the union-find filters out unions of
        already-equal ids).  ``a`` and ``b`` must be ids from trees that were
        distinct before this union.
        """
        if self._frozen:
            self._journal_path(a)
        self._reroot(a)
        self._parent[a] = b
        self._edge[a] = justification

    def _journal_path(self, a: int) -> None:
        """Journal the parent and edge of every id :meth:`record` will
        overwrite: ``a`` and its ancestors, the ones below the freeze line."""
        parent, edge, undo, frozen = self._parent, self._edge, self._undo, self._frozen
        node = a
        while True:
            if node < frozen:
                undo.append((parent, node, parent[node]))
                undo.append((edge, node, edge[node]))
            up = parent[node]
            if up == node:
                return
            node = up

    def _reroot(self, a: int) -> None:
        """Reverse the path from ``a`` to its root so ``a`` becomes the root.

        Edge labels shift one hop: the edge that labelled ``n_i — n_{i+1}``
        still labels that pair afterwards, just stored on the other endpoint.
        """
        parent = self._parent
        edge = self._edge
        prev = a
        carry = edge[a]
        cur = parent[a]
        parent[a] = a
        edge[a] = None
        while cur != prev:
            nxt = parent[cur]
            nxt_edge = edge[cur]
            parent[cur] = prev
            edge[cur] = carry
            prev = cur
            carry = nxt_edge
            cur = nxt

    # -- explanation -----------------------------------------------------------

    def _path_to_root(self, ident: int) -> List[int]:
        parent = self._parent
        path = [ident]
        while parent[ident] != ident:
            ident = parent[ident]
            path.append(ident)
        return path

    def explain_path(self, a: int, b: int) -> Optional[List[ProofStep]]:
        """The minimal chain of justified steps from ``a`` to ``b``.

        Returns ``None`` when the ids live in different trees (i.e. were
        never made equal).  The chain is the unique tree path ``a → lca ←
        b``; each step's justification is the recorded edge, traversed in
        whichever direction the path needs (equality is symmetric).
        """
        if a == b:
            return []
        path_a = self._path_to_root(a)
        depth_of = {node: i for i, node in enumerate(path_a)}
        # Walk b upward until we hit an ancestor of a (the LCA).
        parent = self._parent
        edge = self._edge
        path_b = [b]
        node = b
        while node not in depth_of:
            if parent[node] == node:
                return None  # Different trees: a and b were never unified.
            node = parent[node]
            path_b.append(node)
        lca = node
        steps: List[ProofStep] = []
        # Downhill half: a → lca, edges stored on the child.
        for i in range(depth_of[lca]):
            child = path_a[i]
            up = path_a[i + 1]
            just = edge[child]
            assert just is not None
            steps.append(ProofStep(child, up, just))
        # Uphill half: lca → b, the recorded edges point child→parent so the
        # chain traverses them in reverse.
        for j in range(len(path_b) - 2, -1, -1):
            child = path_b[j]
            up = path_b[j + 1]
            just = edge[child]
            assert just is not None
            steps.append(ProofStep(up, child, just))
        return steps

    # -- snapshots (push/pop support) ------------------------------------------

    def snapshot(self) -> tuple:
        """Capture the forest and node log for a later :meth:`restore`."""
        return (list(self._parent), list(self._edge), dict(self.nodes))

    def restore(self, state: tuple) -> None:
        """Reinstall a captured state.

        Copies defensively: the snapshot tuple stays pristine even if the
        forest keeps growing after the restore, so restoring the same
        snapshot twice is sound (mirrors ``UnionFind.restore``).
        """
        parent, edge, nodes = state
        self.install(list(parent), list(edge), dict(nodes))

    def install(
        self,
        parent: List[int],
        edge: List[Optional[Justification]],
        nodes: Dict[Tuple[str, tuple], Any],
    ) -> None:
        """Adopt the given containers by reference; the caller gives them up."""
        self._parent = parent
        self._edge = edge
        self.nodes = nodes

    def truncate(self, n_ids: int, n_nodes: int) -> None:
        """Drop ids from ``n_ids`` on and log entries past the first ``n_nodes``.

        ``dict.popitem`` removes the newest entry, so the log keeps its
        insertion order and every snapshot document stays byte-identical.
        """
        del self._parent[n_ids:]
        del self._edge[n_ids:]
        nodes = self.nodes
        for _ in range(len(nodes) - n_nodes):
            nodes.popitem()
