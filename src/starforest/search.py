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
  when km < n.  Either way the row is exhausted after 0 nodes;
* otherwise ``hypergraph_exists`` decides it: it enumerates the forests'
  center sets and matches the edges into leaf slots, listing K_n's edges
  only for a complete tuple, so a search stopped earlier holds memory in n.

A node is one center-set placement that rules 1-4 and 6 of
``hypergraph_exists`` admit; a share of a class that rule 6 cuts is skipped
before it is placed, so it is no node.  A search visits at most ``max_nodes``
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
from .core import CheckedRecord, Decomposition, PreconditionError, Star, StarForest
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
       the fewest slots first; an edge whose first slot is free takes it, as
       its augmenting path would;
    6. the n membership masks are pairwise distinct, since edge uv takes a
       slot (v, f) only with u in C_f and v not, or (u, f) the other way
       round, so u and v in the same sets leave it none.  Rule 2's classes
       are the vertices whose masks agree so far.  A later set C_g splits at
       most |C_g| <= |C_f| classes, each in two, and the later sets hold at
       most rule 3's room.  So with ``left`` sets after C_f, C_f is cut when
       the nonempty classes it leaves plus min(left * |C_f|, room after C_f)
       fall short of n, or when a class holds more than 2 ** left vertices.

    Lemma (rule 6 share by share).  C_f walks the classes in order and tries
    each class's shares largest first.  A share of t vertices from a class
    of s leaves two pieces, t and s - t, each of at most 2 ** left vertices,
    so exactly max(s - 2 ** left, 0) <= t <= min(s, 2 ** left) pass the
    class cap.  After C_f the nonempty classes number those before it plus
    one per class it splits (0 < t < s), so C_f must split at least
    need = n - nonempty - min(left * |C_f|, room - |C_f|) classes.  A class
    still to walk splits only if it holds two or more vertices and C_f takes
    one of them, so a share is skipped when the splits so far, its own
    included, plus min(vertices still to take, classes still to walk of two
    or more vertices) fall short of need.  At the last class that sum is the
    exact split count, so the walk yields precisely the placements rule 6
    admits, in the order of the full enumeration, and builds none only for
    rule 6 to cut it.

    A node is one center-set placement, counted and stopped by the budget as
    the module docstring says.  The search recurses once per forest: the
    walk over a forest's classes is a generator, off the call stack while
    later forests are placed, and it adds one short-lived frame per class
    only while it picks the next share.  A recursion deeper than Python's
    limit stops the search as BUDGET_EXCEEDED too.  FOUND carries a validated
    certificate in the module's form; EXHAUSTED_NOT_FOUND is a proof.
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    budget = budget or SearchBudget()
    max_nodes = budget.max_nodes
    monotonic = time.monotonic
    deadline = monotonic() + budget.wall_time
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
            cover = _leaf_cover(member)
            return cover is not None
        left = m - f - 1  # sets after C_f
        bit = 1 << f
        most = 1 << left  # the largest class rule 6 leaves
        refined = [classes[0]]  # the classes after C_f

        def shares(i: int, take: int, splits: int, rest: int, multi: int) -> Iterator[None]:
            """C_f's shares of classes[i:], ``take`` vertices in all and at least
            ``least`` from classes[0], largest first, less every share that
            leaves fewer than ``need`` classes split (rule 6): it yields once
            per placement, with ``refined`` set and C_f's bits in ``member``."""
            if i == len(classes):
                yield
                return
            c = classes[i]
            rest -= len(c)  # the vertices in the classes after c
            multi -= len(c) > 1  # and those classes of two or more vertices
            low = max(take - rest, len(c) - most, least if i == 0 else 0, 0)  # the classes after c hold the rest
            for t in range(min(take, len(c), most), low - 1, -1):
                split = 0 < t < len(c)
                if splits + split + min(take - t, multi) < need:
                    continue
                head, tail, mark = c[:t], c[t:], len(refined)
                if i == 0:  # the free remainder stays refined[0], even when empty
                    refined[0], tail = tail, []
                refined.extend(p for p in (head, tail) if p)
                for v in head:
                    member[v] |= bit
                yield from shares(i + 1, take - t, splits + split, rest, multi)
                for v in head:
                    member[v] ^= bit
                del refined[mark:]

        for size in range(min(cap, room - left), 0, -1):
            least = len(classes[0]) - allow - left * size  # free vertices C_f must take
            if least > size:
                break  # and more for a smaller C_f
            need = n - len(classes) + (not classes[0]) - min(left * size, room - size)  # classes C_f must split
            for _ in shares(0, size, 0, n, sum(len(c) > 1 for c in classes)):
                nodes += 1
                if nodes == check:
                    if nodes > max_nodes:
                        nodes = max_nodes
                        raise _BudgetStop
                    if monotonic() > deadline:
                        raise _BudgetStop
                    check = min(nodes + 4096, max_nodes + 1)
                if place(f + 1, refined, size, room - size):
                    return True
        return False

    try:
        found = place(0, [list(range(n))], min(k, max(1, n // 2)), m * n - n * (n - 1) // 2)
    except (_BudgetStop, RecursionError):
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, nodes)
    leaves = [[[] for _ in range(n)] for _ in range(m)]  # per forest and center
    for slot, e in sorted(cover.items()):
        f, w = divmod(slot, n)
        u, v = divmod(e, n)
        leaves[f][u + v - w].append(w)
    return SearchResult(SearchStatus.FOUND, _validated(Decomposition(n=n, k=k, forests=tuple(
        StarForest(tuple(Star(c, tuple(ls)) for c, ls in enumerate(row) if ls)) for row in leaves if any(row)
    ))), nodes)


def _leaf_cover(member: list[int]) -> dict[int, int] | None:
    """A matching of every edge into the leaf slots, or None (rule 5).

    ``member[v]`` has bit f set when v is in C_f.  Edge uv (u < v) is the key
    u * n + v, listed here in lexicographic order; the matching maps leaf
    slot (w, f), numbered f * n + w, to the key of the edge it holds.
    """
    n = len(member)
    slots: dict[int, list[int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            here = []
            for w, x in ((v, member[u] & ~member[v]), (u, member[v] & ~member[u])):
                while x:  # each forest with the other end a center and w not
                    low = x & -x
                    here.append((low.bit_length() - 1) * n + w)
                    x ^= low
            slots[u * n + v] = here
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

    for e, here in sorted(slots.items(), key=lambda item: len(item[1])):
        if here and here[0] not in owner:  # what augment would do first
            owner[here[0]] = e
        elif not augment(e):
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
