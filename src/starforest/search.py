"""Exhaustive oracle for the minimum number of k-star-forests decomposing K_n.

Two engines decide whether K_n splits into m k-star-forests.  The
backtracker below assigns edges to forests and finds the lexicographically
smallest certificate.  ``hypergraph_exists`` enumerates the forests' center
sets and matches edges to leaf slots; it decides the rows the backtracker
exhausts only slowly.  ``exists_decomposition`` runs the backtracker alone
when m >= n-1, where the staircase always fits.  Otherwise the backtracker
gets an allowance of 2^10 nodes; past it, ``hypergraph_exists`` decides, and
only when it finds center sets does the backtracker run again, from the
start, for its certificate.  Should that run exhaust the row, the engines
disagree, and the search raises AssertionError.  The allowance comes from
the rows with n <= 8: each one the backtracker finds takes at most 884 nodes
or at least 472,533, so every certificate and its node count stay as they
were, while every exhaustion past 1,024 nodes goes to the hypergraph engine.

The backtracker assigns edges to forests one at a time in lexicographic
order.  Each forest f keeps one int per vertex in ``star[f]``: -1 means
absent, c >= 0 a leaf of center c, and -1-j a center with j leaves.  A
two-vertex star (its center reads -2) stays orientation-flexible: its leaf
may still be promoted to center by a later edge, which is what makes the
enumeration complete.

One recursive kernel places an edge (u, v) in forest f by a single dispatch
on its present endpoint p (u if neither endpoint is present), the absent one
q and p's old value: q always becomes a leaf of p, and p becomes a center
with one more leaf, whether it was absent (a new star) or a center already;
a leaf p of a flexible star is first promoted, its old center becoming its
leaf.  Undo writes -1 back to q, p's old value to p and, after a promotion,
-2 to the old center.  Pruning:

* both endpoints already in the forest -> never legal (cycle or non-star path),
* per-forest component bound k,
* edge-count slack: a forest with c stars on the vertex set V_f holds
  |V_f| - c edges.  A vertex v that still needs r_v edges and is absent from
  a_v forests can join at most r_v of them, so at least
  extra[v] = a_v - r_v forests never hold it.  extra[v] starts at
  m - (n-1) and rises by one whenever an edge lands in a forest where v
  already is (attached to center v, or v promoted from leaf).  Neither
  extra[v] nor comps[f] falls along a branch, so if every forest ends in use,
  K_n's |E| edges fit only while
  slack = m*n - |E| - sum_f max(comps[f], 1) - sum_v max(extra[v], 0) >= 0.
  It drops by one when a new star lands in a forest already in use, or when
  an edge lands at a present p whose extra[p] becomes positive; a new star
  that opens a forest leaves it alone.  A forest still unused may end empty:
  it holds no edge though every vertex is absent from it, so the charge can
  exceed the truth by one per such forest, and by at most min_v extra[v] in
  all.  The test, made before each recursive call, is therefore
  slack + min(m - used, min_v extra[v]) >= 0, whose min is read only while
  slack < 0 and some forest is unused,
* star count: with m < n-1 each vertex has n-1 > m edges, and a forest gives
  a vertex two of them only as the center of a star of >= 2 leaves, so every
  vertex centers such a star somewhere.  Such a center never changes along a
  branch.  slack + m - used, which is
  m*n - |E| - sum_f comps[f] - sum_v max(extra[v], 0), never rises, drops by
  one per new star and ends at 0, so it bounds the stars still to come.  A
  vertex that centers no star of >= 2 leaves yet needs a new star or one of
  the flexible stars, each of which grows into a star of two leaves at one
  end only.  So need = (vertices centering no such star) - (flexible stars)
  may not exceed slack + m - used.  At the root this reads 2m >= n + 1, so
  m < n-1 with 2m <= n is answered before K_n is allocated.  So is m < n-1
  with km < n, which adds the rows with k = 1: every vertex centers a star
  somewhere, and m forests hold at most km stars.  For m >= n-1 the test is
  turned off by adding n to its left side, since need <= n and the slack
  test keeps slack + m - used >= 0,
* forest symmetry: index f is tried only if some forest < f is already used
  or f is the first unused one, so the very first edge is pinned to forest 0,
* vertex symmetry (column rule): for an edge (i, v) with v >= i + 2, if
  columns v-1 and v got the same forest on every row i' < i, then (i, v) may
  not go to a lower forest than (i, v-1).  Sound because the lexicographically
  smallest assignment in any orbit under forest relabellings and vertex
  permutations obeys it: swapping v-1 and v would otherwise make it smaller.

A node is an edge placement of the backtracker or a center-set placement of
``hypergraph_exists``.  A search visits at most ``max_nodes`` nodes over all
its stages, and reports their sum: one that needs exactly ``max_nodes``
finishes, and the next placement past the budget stops it with
BUDGET_EXCEEDED.  A feasible row past the allowance pays for all three stages:
(8, 4, 5) costs 1,024 nodes, the engine's placements, then 472,533.  The clock
is read whenever the node count reaches a multiple of 4096.  The backtracker
recurses once per edge, so a search that would recurse deeper than Python's
recursion limit stops as BUDGET_EXCEEDED too.  At the default limit of 1000
that happens from n = 46 (1035 edges), and at n = 45 (990 edges) when the
caller's own stack is more than about ten frames deep.

Single-threaded and deterministic: the certificate ``exists_decomposition``
returns is the backtracker's first one in canonical order, i.e. the
lexicographically smallest valid assignment, which both symmetry rules keep.
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


_ALLOWANCE = 1 << 10  # backtracker nodes before hypergraph_exists decides a row with m < n-1


def exists_decomposition(n: int, k: int, m: int, budget: SearchBudget | None = None) -> SearchResult:
    """Search for a decomposition of K_n into at most m k-star-forests.

    FOUND carries the backtracker's validated certificate; EXHAUSTED_NOT_FOUND
    is a proof by exhaustion (trustworthy because no budget event fired).
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    budget = budget or SearchBudget()
    max_nodes = budget.max_nodes
    deadline = time.monotonic() + budget.wall_time
    if m >= n - 1:
        return _backtrack(n, k, m, max_nodes, deadline, 0)
    res = _backtrack(n, k, m, min(_ALLOWANCE, max_nodes), deadline, 0)
    if res.status is not SearchStatus.BUDGET_EXCEEDED or res.nodes_explored < _ALLOWANCE:
        return res  # decided, or stopped by a smaller budget, the clock or Python's recursion limit
    res = _hypergraph(n, k, m, max_nodes, deadline, _ALLOWANCE)
    if res.status is not SearchStatus.FOUND:
        return res
    res = _backtrack(n, k, m, max_nodes, deadline, res.nodes_explored)
    if res.status is SearchStatus.EXHAUSTED_NOT_FOUND:
        raise AssertionError(f"hypergraph_exists found center sets for ({n}, {k}, {m}), "
                             "but the backtracker exhausted the row")
    return res


def _backtrack(n: int, k: int, m: int, max_nodes: int, deadline: float, nodes: int) -> SearchResult:
    """The backtracker alone, counting on from ``nodes`` spent before it."""
    if m < n - 1 and (2 * m <= n or k * m < n):  # too few stars for n centers: decided before allocating K_n
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, nodes)
    monotonic = time.monotonic
    edges = complete_graph_edges(n)
    star = [[-1] * n for _ in range(m)]  # per-vertex state, see above
    comps = [0] * m  # stars per forest; a forest is in use iff > 0
    assign = [0] * len(edges)  # forest chosen for each edge
    tie = [0] * n  # leading rows on which columns v-1 and v agree
    end = len(edges)
    used = 0  # forests with a star; forest symmetry keeps them a prefix
    extra = [m - (n - 1)] * n  # per vertex: forests it is absent from minus edges it still needs
    slack = m * (n - 1) - end - n * max(m - (n - 1), 0)  # edge-count slack, see above
    big = [0] * n  # per vertex: stars of >= 2 leaves centered at it
    need = n  # vertices with big[v] == 0, less the flexible stars
    room = m if m < n - 1 else m + n  # slack + room - used >= need is the star-count test; + n turns it off
    check = min(nodes - nodes % 4096 + 4096, max_nodes + 1)  # the next node count that reads the budget or the clock

    def solve(idx: int) -> bool:
        nonlocal used, slack, need, nodes, check
        if idx == end:
            return True
        u, v = edges[idx]
        limit = used + 1 if used < m else m
        # column rule: while columns v-1 and v agree on rows < u, the edge
        # (u, v-1) just before this one sets the lowest admissible forest
        tied = v > u + 1 and tie[v] == u
        lo = assign[idx - 1] if tied else 0
        for f in range(lo, limit):
            s = star[f]
            # p is the endpoint already present (u if neither is), q the absent one
            p, q, sp = u, v, s[u]
            if sp == -1:
                if s[v] != -1:
                    p, q, sp = v, u, s[v]
            elif s[v] != -1:
                continue  # both present
            if sp == -1:  # p is absent: a new star centered at p
                if comps[f] >= k:
                    continue
                comps[f] += 1
                if comps[f] == 1:
                    used += 1
                else:
                    slack -= 1
                s[p] = -2
                need -= 1
            else:  # p is present, so this edge spends one of its edges where it already is
                if sp >= 0:  # p is a leaf of sp: promote it if its star is flexible
                    if s[sp] != -2:
                        continue
                    s[sp], s[p] = p, -3
                else:  # p is a center: attach q
                    s[p] = sp - 1
                if sp >= -2:  # a flexible star became p's star of two leaves
                    b = big[p]
                    big[p] = b + 1
                    if b:
                        need += 1
                e = extra[p] + 1
                extra[p] = e
                if e > 0:
                    slack -= 1
            s[q] = p
            nodes += 1
            if nodes == check:
                if nodes > max_nodes:
                    nodes = max_nodes
                    raise _BudgetStop
                if monotonic() > deadline:
                    raise _BudgetStop
                check = min(nodes + 4096, max_nodes + 1)
            assign[idx] = f
            if tied:
                tie[v] = u + 1 if f == lo else u
            # the child's slack test, made here to spare a call (see above)
            if ((slack >= 0 or used < m and slack + min(m - used, *extra) >= 0)
                    and slack + room - used >= need and solve(idx + 1)):
                return True
            s[q], s[p] = -1, sp
            if sp == -1:
                need += 1
                comps[f] -= 1
                if comps[f] == 0:
                    used -= 1
                else:
                    slack += 1
            else:
                if sp >= 0:
                    s[sp] = -2
                if sp >= -2:
                    big[p] = b
                    if b:
                        need -= 1
                if e > 0:
                    slack += 1
                extra[p] = e - 1
        if tied:
            tie[v] = u
        return False

    try:
        found = solve(0)
    except (_BudgetStop, RecursionError):  # a recursion too deep for Python is a budget too
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, nodes)
    cert = Decomposition(n=n, k=k, forests=tuple(
        StarForest(tuple(Star(c, tuple(v for v in range(n) if s[v] == c)) for c in range(n) if s[c] < -1))
        for s in star[:used]
    ))
    if not validate_decomposition(cert).ok:
        raise AssertionError
    return SearchResult(SearchStatus.FOUND, cert, nodes)


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
    five rules:

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
       the fewest slots first.

    A node is one center-set placement, and the budget counts and stops them
    as it does the backtracker's nodes.  FOUND carries a validated
    certificate, forest f's stars in order of center (not the backtracker's
    lexicographically smallest one); EXHAUSTED_NOT_FOUND is a proof.
    """
    if n < 1 or k < 1 or m < 1:
        raise PreconditionError("needs n >= 1, k >= 1, m >= 1")
    budget = budget or SearchBudget()
    return _hypergraph(n, k, m, budget.max_nodes, time.monotonic() + budget.wall_time, 0)


def _hypergraph(n: int, k: int, m: int, max_nodes: int, deadline: float, nodes: int) -> SearchResult:
    """hypergraph_exists' enumeration, counting on from ``nodes`` spent before it."""
    monotonic = time.monotonic
    edges = complete_graph_edges(n)
    member = [0] * n  # per vertex: bitmask of the forests whose center set holds it
    allow = 0 if m < n - 1 else 1  # vertices that may end in no center set (rule 4)
    check = min(nodes - nodes % 4096 + 4096, max_nodes + 1)  # the next node count that reads the budget or the clock
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
                        for v in c[:t]:
                            member[v] |= bit
                    if i and t < len(c):
                        refined.append(c[t:])
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
    cert = Decomposition(n=n, k=k, forests=tuple(
        StarForest(tuple(Star(c, tuple(ls)) for c, ls in enumerate(row) if ls)) for row in leaves if any(row)
    ))
    if not validate_decomposition(cert).ok:
        raise AssertionError
    return SearchResult(SearchStatus.FOUND, cert, nodes)


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
        if not here:
            return None
        slots.append(here)
    owner: dict[int, int] = {}

    def augment(e: int, seen: set[int]) -> bool:
        for s in slots[e]:
            if s not in seen:
                seen.add(s)
                o = owner.get(s)
                if o is None or augment(o, seen):
                    owner[s] = e
                    return True
        return False

    for e in sorted(range(len(edges)), key=lambda e: len(slots[e])):
        if not augment(e, set()):
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
    the answer is n-1, and its certificate is the staircase of n-1 single
    stars (forest i: center i, leaves i+1..n-1).  That is the assignment the
    search would find first at m = n-1: when edge (u, v) comes, every forest
    j < u already holds both u and v, so forest u is the lowest that can
    take it.  If the budget dies first, the result carries the bracketing
    interval instead of a value.
    """
    if n < 1 or k < 1:
        raise PreconditionError("needs n >= 1 and k >= 1")
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
        cert = Decomposition(n, k, tuple(StarForest((Star(i, tuple(range(i + 1, n))),)) for i in range(n - 1)))
        if not validate_decomposition(cert).ok:
            raise AssertionError
        return FExactResult(SearchStatus.FOUND, n - 1, cert, tuple(attempts), lb, (n - 1, n - 1), nodes)
    return FExactResult(SearchStatus.BUDGET_EXCEEDED, None, None,
                        tuple(attempts), lb, (m, n - 1), nodes)
