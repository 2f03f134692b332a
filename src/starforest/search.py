"""Exhaustive oracle for the minimum number of k-star-forests decomposing K_n.

Edges are assigned to forests one at a time in lexicographic order.  Within a
forest every vertex is either absent, a center, or a leaf; a two-vertex star
stays orientation-flexible (its leaf may still be promoted to center by a
later edge), which is what makes the enumeration complete.  Pruning:

* both endpoints already in the forest -> never legal (cycle or non-star path),
* per-forest component bound k and edge capacity n - max(components, 1),
* global capacity: remaining slots across forests must cover remaining edges,
* forest symmetry: index f is tried only if some forest < f is already used
  or f is the first unused one, so the very first edge is pinned to forest 0,
* vertex symmetry (column rule): for an edge (i, v) with v >= i + 2, if
  columns v-1 and v got the same forest on every row i' < i, then (i, v) may
  not go to a lower forest than (i, v-1).  Sound because the lexicographically
  smallest assignment in any orbit under forest relabellings and vertex
  permutations obeys it: swapping v-1 and v would otherwise make it smaller.

Single-threaded and deterministic: the certificate returned is the first one
found in canonical order, i.e. the lexicographically smallest valid
assignment, which both symmetry rules keep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .bounds import safe_lower_bound
from .core import Decomposition, PreconditionError, Star, StarForest, complete_graph_edges
from .verify import validate_decomposition


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NOT_FOUND = "exhausted-not-found"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 50_000_000
    wall_time: float = 600.0

    def __post_init__(self) -> None:
        if not (self.max_nodes > 0 and self.wall_time > 0):  # also rejects NaN
            raise PreconditionError("budget fields must be positive")


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    certificate: Decomposition | None
    nodes_explored: int


class _BudgetStop(Exception):
    pass


_UNUSED, _CENTER, _LEAF = 0, 1, 2


class _Searcher:
    def __init__(self, n: int, k: int, m: int, budget: SearchBudget):
        self.n, self.k, self.m = n, k, m
        self.edges = complete_graph_edges(n)
        self.role = [bytearray(n) for _ in range(m)]
        self.parent = [[-1] * n for _ in range(m)]
        self.nleaf = [[0] * n for _ in range(m)]
        self.comps = [0] * m
        self.ecnt = [0] * m
        self.assign = [0] * len(self.edges)  # forest chosen for each edge
        self.tie = [0] * n  # leading rows on which columns v-1 and v agree
        self.capacity = m * (n - 1)
        self.used = 0
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.wall_time

    def run(self) -> SearchResult:
        try:
            found = self._solve(0)
        except _BudgetStop:
            return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, self.nodes)
        if not found:
            return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, self.nodes)
        cert = self._certificate()
        if not validate_decomposition(cert).ok:
            raise AssertionError
        return SearchResult(SearchStatus.FOUND, cert, self.nodes)

    def _solve(self, idx: int) -> bool:
        if idx == len(self.edges):
            return True
        if self.capacity < len(self.edges) - idx:
            return False
        u, v = self.edges[idx]
        limit = self.used + 1 if self.used < self.m else self.m
        # column rule: while columns v-1 and v agree on rows < u, the edge
        # (u, v-1) just before this one sets the lowest admissible forest
        tied = v > u + 1 and self.tie[v] == u
        lo = self.assign[idx - 1] if tied else 0
        for f in range(lo, limit):
            undo = self._try_assign(f, u, v)
            if undo is None:
                continue
            self.nodes += 1
            if self.nodes >= self.max_nodes:
                raise _BudgetStop
            if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
                raise _BudgetStop
            self.assign[idx] = f
            if tied:
                self.tie[v] = u + 1 if f == lo else u
            if self._solve(idx + 1):
                return True
            self._undo(f, undo)
        if tied:
            self.tie[v] = u
        return False

    def _try_assign(self, f: int, u: int, v: int):
        """Mutate state to put edge (u, v) into forest f; None if illegal.

        Returns an undo record: (kind, u, v, extra).
        """
        role, parent, nleaf = self.role[f], self.parent[f], self.nleaf[f]
        ru, rv = role[u], role[v]
        if ru and rv:
            return None
        if not ru and not rv:
            if self.comps[f] >= self.k:
                return None
            # provisionally center the lower endpoint; a later edge may flip it
            role[u], role[v] = _CENTER, _LEAF
            parent[v] = u
            nleaf[u] = 1
            self.comps[f] += 1
            self.capacity -= 1 if self.comps[f] == 1 else 2
            self._bump_ecnt(f)
            return ("new", u, v, None)
        if rv:  # exactly one endpoint present: normalize so it is u
            u, v, ru = v, u, rv
        if ru == _CENTER:
            role[v] = _LEAF
            parent[v] = u
            nleaf[u] += 1
            self.capacity -= 1
            self._bump_ecnt(f)
            return ("attach", u, v, None)
        c = parent[u]
        if nleaf[c] != 1:
            return None  # u is a committed leaf
        # flexible two-vertex star: promote u to center, demote c
        role[u], role[c], role[v] = _CENTER, _LEAF, _LEAF
        parent[c], parent[u], parent[v] = u, -1, u
        nleaf[c], nleaf[u] = 0, 2
        self.capacity -= 1
        self._bump_ecnt(f)
        return ("promote", u, v, c)

    def _bump_ecnt(self, f: int) -> None:
        if self.ecnt[f] == 0:
            self.used += 1
        self.ecnt[f] += 1

    def _drop_ecnt(self, f: int) -> None:
        self.ecnt[f] -= 1
        if self.ecnt[f] == 0:
            self.used -= 1

    def _undo(self, f: int, undo) -> None:
        kind, u, v, extra = undo
        role, parent, nleaf = self.role[f], self.parent[f], self.nleaf[f]
        self._drop_ecnt(f)
        if kind == "new":
            role[u] = role[v] = _UNUSED
            parent[v] = -1
            nleaf[u] = 0
            self.capacity += 1 if self.comps[f] == 1 else 2
            self.comps[f] -= 1
        elif kind == "attach":
            role[v] = _UNUSED
            parent[v] = -1
            nleaf[u] -= 1
            self.capacity += 1
        else:  # promote
            c = extra
            role[u], role[c], role[v] = _LEAF, _CENTER, _UNUSED
            parent[u], parent[c], parent[v] = c, -1, -1
            nleaf[c], nleaf[u] = 1, 0
            self.capacity += 1

    def _certificate(self) -> Decomposition:
        forests = []
        for f in range(self.m):
            if self.ecnt[f] == 0:
                break
            role, parent = self.role[f], self.parent[f]
            stars = tuple(
                Star(c, tuple(v for v in range(self.n) if role[v] == _LEAF and parent[v] == c))
                for c in range(self.n)
                if role[c] == _CENTER
            )
            forests.append(StarForest(stars))
        return Decomposition(n=self.n, k=self.k, forests=tuple(forests))


def exists_decomposition(n: int, k: int, m: int, budget: SearchBudget | None = None) -> SearchResult:
    """Search for a decomposition of K_n into at most m k-star-forests.

    FOUND carries a validated certificate; EXHAUSTED_NOT_FOUND is a proof by
    exhaustion (trustworthy because no budget event fired).
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    return _Searcher(n, k, m, budget or SearchBudget()).run()


@dataclass(frozen=True)
class FExactResult:
    n: int
    k: int
    status: SearchStatus  # FOUND once the minimum is pinned, else BUDGET_EXCEEDED
    value: int | None
    certificate: Decomposition | None
    attempts: tuple[tuple[int, SearchStatus], ...]
    lower_bound: int
    interval: tuple[int, int]  # best bracketing [lb, ub] on the minimum
    nodes_explored: int


def f_exact(n: int, k: int, budget: SearchBudget | None = None) -> FExactResult:
    """Exact F_k(n) by ascending forest budgets from the best proven lower bound.

    Every m below the answer yields an exhaustion token in ``attempts``.  If
    the budget dies first, the result carries the bracketing interval instead
    of a value (n-1 single stars always work, hence the upper end).
    """
    if n < 1 or k < 1:
        raise PreconditionError("needs n >= 1 and k >= 1")
    budget = budget or SearchBudget()
    if n == 1:
        empty = Decomposition(n=1, k=k, forests=())
        return FExactResult(n, k, SearchStatus.FOUND, 0, empty, (), 0, (0, 0), 0)

    lb, _ = safe_lower_bound(n, k)
    deadline = time.monotonic() + budget.wall_time
    nodes_left = budget.max_nodes
    nodes_total = 0
    attempts: list[tuple[int, SearchStatus]] = []
    for m in range(lb, n):
        time_left = deadline - time.monotonic()
        if time_left <= 0 or nodes_left <= 0:
            return FExactResult(n, k, SearchStatus.BUDGET_EXCEEDED, None, None,
                                tuple(attempts), lb, (m, n - 1), nodes_total)
        res = exists_decomposition(n, k, m, SearchBudget(max_nodes=nodes_left, wall_time=time_left))
        attempts.append((m, res.status))
        nodes_total += res.nodes_explored
        nodes_left -= res.nodes_explored
        if res.status is SearchStatus.FOUND:
            return FExactResult(n, k, SearchStatus.FOUND, m, res.certificate,
                                tuple(attempts), lb, (m, m), nodes_total)
        if res.status is SearchStatus.BUDGET_EXCEEDED:
            return FExactResult(n, k, SearchStatus.BUDGET_EXCEEDED, None, None,
                                tuple(attempts), lb, (m, n - 1), nodes_total)
    raise AssertionError("unreachable: n-1 single stars always decompose K_n")
