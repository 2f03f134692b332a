"""Exact search for the minimum number of k-star-forests decomposing K_n.

``exists_decomposition(n, k, m)`` decides whether K_n splits into at most m
k-star-forests, in one of three ways:

* with m >= n-1 the staircase of n-1 single stars fits (forest i: center i,
  leaves i+1..n-1), so it is returned after 0 nodes;
* with m < n-1 every vertex meets n-1 > m edges, and a forest gives a vertex
  two of them only as the center of a star of two or more leaves.  So every
  vertex centers such a star somewhere.  A forest of c stars holds at most
  n - c edges, so the m forests hold at most m*n - n(n-1)/2 stars, which
  falls short of n when 2m <= n; and they hold at most km, which falls short
  when km < n.  Either way the row is exhausted after 0 nodes, before the
  n(n-1)/2 edges of K_n are built;
* otherwise ``hypergraph_exists`` decides it: it enumerates the forests'
  center sets and matches the edges into leaf slots.

A node is one center-set placement, counted also when rule 6 of
``hypergraph_exists`` then cuts it.  A search visits at most ``max_nodes``
of them and reports how many it visited: one that needs exactly
``max_nodes`` finishes, and the next placement past the budget stops it with
BUDGET_EXCEEDED.  The clock is read whenever the node count reaches a
multiple of 4096, so even an expired deadline lets the first 4096 run.

Every FOUND certificate passes ``validate_decomposition`` before it is
returned, or the search raises.  Single-threaded and deterministic: a
certificate lists the engine's forests in enumeration order, each forest's
stars by center and each star's leaves ascending; the staircase is that
form too.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .bounds import safe_lower_bound
from .core import CheckedRecord, Decomposition, PreconditionError, Star, StarForest, complete_graph_edges
from .verify import validate_decomposition


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NOT_FOUND = "exhausted-not-found"
    BUDGET_EXCEEDED = "budget-exceeded"


class SearchBudget(CheckedRecord, NamedTuple("SearchBudget", [("max_nodes", int), ("wall_time", float)])):
    __slots__ = ()

    def __new__(cls, max_nodes: int = 50_000_000, wall_time: float = 600.0) -> SearchBudget:
        if not (max_nodes > 0 and wall_time > 0):  # also rejects NaN
            raise PreconditionError("budget fields must be positive")
        return tuple.__new__(cls, (max_nodes, wall_time))


class SearchResult(NamedTuple):
    status: SearchStatus
    certificate: Decomposition | None
    nodes_explored: int


class _BudgetStop(Exception):
    pass


def exists_decomposition(n: int, k: int, m: int, budget: SearchBudget | None = None) -> SearchResult:
    """Search for a decomposition of K_n into at most m k-star-forests.

    FOUND carries a validated certificate; EXHAUSTED_NOT_FOUND is a proof by
    exhaustion (trustworthy because no budget event fired).
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    if m >= n - 1:
        return SearchResult(SearchStatus.FOUND, _staircase(n, k), 0)
    if 2 * m <= n or k * m < n:  # too few stars for n centers: decided before building K_n
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, 0)
    return hypergraph_exists(n, k, m, budget)


def _staircase(n: int, k: int) -> Decomposition:
    """The n-1 single stars, forest i: center i, leaves i+1..n-1."""
    forests = tuple(StarForest((Star(i, tuple(range(i + 1, n))),)) for i in range(n - 1))
    return _validated(Decomposition(n, k, forests))


def _validated(cert: Decomposition) -> Decomposition:
    if not validate_decomposition(cert).ok:
        raise AssertionError(f"a search certificate for K_{cert.n} with k = {cert.k} fails validation")
    return cert


def hypergraph_exists(n: int, k: int, m: int, budget: SearchBudget | None = None) -> SearchResult:
    """Decide whether K_n splits into at most m k-star-forests by center sets.

    The reduction: give every star of a decomposition a center (either end of
    a one-edge star) and let C_f hold forest f's centers, so |C_f| <= k.  A
    vertex outside C_f lies on at most one edge of forest f, as a leaf, and
    no edge of forest f joins two of its centers.  So edge uv takes the leaf
    slot (v, f) of a forest with u in C_f and v not, or (u, f) of one with v
    in C_f and u not, and no slot holds two edges: the edges of K_n have a
    matching into the leaf slots that covers every edge.  Conversely, such a
    matching makes forest f the stars c: {w : (w, f) holds edge cw}, one per
    center in C_f, so at most k of them.  The search enumerates C_1..C_m by
    six rules:

    1. sizes are nonincreasing, at least 1 and at most max(1, n // 2),
       since forests are interchangeable, a forest with no edge may take any
       one center, and the stars of a forest are disjoint and have at least
       two vertices each;
    2. C_f takes a prefix of each class of vertices that lie in the same sets
       among C_1..C_{f-1}: a permutation within the classes fixes those sets
       and can turn C_f's share of each class into a prefix;
    3. sum |C_f| <= mn - n(n-1)/2, since forest f has n - |C_f| leaf slots;
    4. every vertex is a center somewhere when m < n-1, since one that never
       is meets at most m edges, and all but one otherwise, since an edge
       between two such vertices takes no slot.  The sets after C_f are no
       larger, so the tuple is cut once the vertices in no set exceed that
       allowance plus (sets after C_f) * |C_f|;
    5. each complete tuple is matched by Kuhn's augmenting paths, edges with
       the fewest slots first;
    6. the n membership masks are pairwise distinct, since edge uv takes a
       slot (v, f) only with u in C_f and v not, or (u, f) the other way
       round, so u and v in the same sets leave it none.  Rule 2's classes
       are the vertices whose masks agree so far.  A later set C_g splits at
       most |C_g| <= |C_f| classes, each in two, and the later sets hold at
       most rule 3's room.  So with ``left`` sets after C_f, C_f is cut when
       the nonempty classes it leaves plus min(left * |C_f|, room after C_f)
       fall short of n, or when a class holds more than 2 ** left vertices.

    A node is one center-set placement, counted and stopped by the budget as
    the module docstring says; a recursion deeper than Python's limit stops
    the search as BUDGET_EXCEEDED too.  FOUND carries a validated
    certificate in the module's form; EXHAUSTED_NOT_FOUND is a proof.
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    budget = budget or SearchBudget()
    max_nodes = budget.max_nodes
    monotonic = time.monotonic
    deadline = monotonic() + budget.wall_time
    edges = complete_graph_edges(n)
    member = [0] * n  # per vertex: bitmask of the forests whose center set holds it
    allow = 0 if m < n - 1 else 1  # vertices that may end in no center set (rule 4)
    nodes = 0
    check = min(4096, max_nodes + 1)  # the next node count that reads the budget or the clock
    cover: dict[int, int] | None = None

    def place(f: int, classes: list[list[int]], cap: int, room: int) -> bool:
        """Choose the center sets of forests f..m-1, each of at most cap
        vertices and room in all; classes[0] holds the vertices in no set yet."""
        nonlocal nodes, check, cover
        if f == m:
            cover = _leaf_cover(edges, member)
            return cover is not None
        left = m - f - 1  # sets after C_f
        free = classes[0]
        bit = 1 << f
        sizes = [len(c) for c in classes]
        for size in range(min(cap, room - left), 0, -1):
            least = len(free) - allow - left * size  # free vertices C_f must take
            if least > size:
                break  # and more for a smaller C_f
            for counts in _prefix_counts(sizes, size, least):
                nodes += 1
                if nodes == check:
                    if nodes > max_nodes:
                        nodes = max_nodes
                        raise _BudgetStop
                    if monotonic() > deadline:
                        raise _BudgetStop
                    check = min(nodes + 4096, max_nodes + 1)
                refined = [free[counts[0]:]]
                for i, (c, t) in enumerate(zip(classes, counts)):
                    if t:
                        refined.append(c[:t])
                    if i and t < len(c):
                        refined.append(c[t:])
                if (len(refined) - (not refined[0]) + min(left * size, room - size) < n
                        or max(map(len, refined)) > 1 << left):
                    continue  # rule 6: the masks can no longer all differ
                for c, t in zip(classes, counts):
                    for v in c[:t]:
                        member[v] |= bit
                if place(f + 1, refined, size, room - size):
                    return True
                for c, t in zip(classes, counts):
                    for v in c[:t]:
                        member[v] ^= bit
        return False

    try:
        found = place(0, [list(range(n))], min(k, max(1, n // 2)), m * n - len(edges))
    except (_BudgetStop, RecursionError):
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, nodes)
    leaves = [[[] for _ in range(n)] for _ in range(m)]  # per forest and center
    for slot, e in sorted(cover.items()):
        f, w = divmod(slot, n)
        u, v = edges[e]
        leaves[f][u + v - w].append(w)
    return SearchResult(SearchStatus.FOUND, _validated(Decomposition(n=n, k=k, forests=tuple(
        StarForest(tuple(Star(c, tuple(ls)) for c, ls in enumerate(row) if ls)) for row in leaves if any(row)
    ))), nodes)


def _prefix_counts(sizes: list[int], total: int, least: int) -> Iterator[tuple[int, ...]]:
    """Every way to take ``total`` vertices as prefixes of classes of these
    sizes, at least ``least`` of them from the first, largest shares first."""
    if len(sizes) == 1:
        if least <= total <= sizes[0]:
            yield (total,)
        return
    rest = sum(sizes[1:])
    for t in range(min(total, sizes[0]), max(least, total - rest, 0) - 1, -1):
        for tail in _prefix_counts(sizes[1:], total - t, 0):
            yield (t, *tail)


def _leaf_cover(edges: list[tuple[int, int]], member: list[int]) -> dict[int, int] | None:
    """A matching of every edge into the leaf slots, or None (rule 5).

    ``member[v]`` has bit f set when v is in C_f.  The matching maps leaf slot
    (w, f), numbered f * n + w, to the index of the edge it holds.
    """
    n = len(member)
    slots = []
    for u, v in edges:
        here = []
        for w, x in ((v, member[u] & ~member[v]), (u, member[v] & ~member[u])):
            while x:  # each forest with the other end a center and w not
                low = x & -x
                here.append((low.bit_length() - 1) * n + w)
                x ^= low
        slots.append(here)
    owner: dict[int, int] = {}

    def augment(e: int) -> bool:
        """Kuhn's depth-first search for an augmenting path from edge e, on
        explicit stacks, since a path can be longer than Python's recursion
        limit: path[i] tries its slots in turn, and took[i] is the slot it
        reached that path[i+1] holds."""
        seen = set()
        path, took, tries = [e], [], [iter(slots[e])]
        while tries:
            for s in tries[-1]:
                if s in seen:
                    continue
                seen.add(s)
                o = owner.get(s)
                if o is None:  # a free slot: each edge on the path moves to the slot it reached
                    owner[s] = path[-1]
                    for p, t in zip(path, took):
                        owner[t] = p
                    return True
                path.append(o)
                took.append(s)
                tries.append(iter(slots[o]))
                break
            else:
                tries.pop()
                path.pop()
                if took:
                    took.pop()
        return False

    for e in sorted(range(len(edges)), key=lambda e: len(slots[e])):
        if not augment(e):
            return None
    return owner


class FExactResult(NamedTuple):
    status: SearchStatus  # FOUND once the minimum is pinned, else BUDGET_EXCEEDED
    value: int | None
    certificate: Decomposition | None
    attempts: tuple[tuple[int, SearchStatus], ...]
    lower_bound: int
    interval: tuple[int, int]  # best bracketing [lb, ub] on the minimum
    nodes_explored: int


def f_exact(n: int, k: int, budget: SearchBudget | None = None) -> FExactResult:
    """Exact F_k(n) by ascending forest budgets from the best proven lower bound.

    Every m below the answer yields an exhaustion token in ``attempts``.  Only
    m < n-1 is searched: once those are exhausted (or below the lower bound),
    the answer is n-1, and its certificate is the staircase that
    ``exists_decomposition`` gives for m = n-1, so it needs no budget left.
    If the budget dies first, the result carries the bracketing interval
    instead of a value.
    """
    budget = budget or SearchBudget()
    lb, _ = safe_lower_bound(n, k)
    deadline = time.monotonic() + budget.wall_time
    nodes = 0
    attempts: list[tuple[int, SearchStatus]] = []
    for m in range(lb, n - 1):
        time_left = deadline - time.monotonic()
        if time_left <= 0 or nodes >= budget.max_nodes:
            break
        left = SearchBudget(max_nodes=budget.max_nodes - nodes, wall_time=time_left)
        res = exists_decomposition(n, k, m, left)
        attempts.append((m, res.status))
        nodes += res.nodes_explored
        if res.status is SearchStatus.FOUND:
            return FExactResult(SearchStatus.FOUND, m, res.certificate,
                                tuple(attempts), lb, (m, m), nodes)
        if res.status is SearchStatus.BUDGET_EXCEEDED:
            break
    else:
        return FExactResult(SearchStatus.FOUND, n - 1, _staircase(n, k), tuple(attempts), lb, (n - 1, n - 1), nodes)
    return FExactResult(SearchStatus.BUDGET_EXCEEDED, None, None,
                        tuple(attempts), lb, (m, n - 1), nodes)
