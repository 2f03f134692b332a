"""An edge-placement backtracker: the tests' independent oracle for the search.

``backtrack(n, k, m)`` decides whether K_n splits into at most m
k-star-forests by a method that shares nothing with ``hypergraph_exists``
beyond the records it returns, and its first certificate is the
lexicographically smallest valid assignment of edges to forests.  It is far
slower on most rows with m < n-1, so it lives here, and the tests check that
the program's search agrees with it.

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

A node is an edge placement.  The search visits at most ``max_nodes`` of
them: the next placement past that stops it with BUDGET_EXCEEDED, reporting
``max_nodes``.  It recurses once per edge, so from n = 46 (1035 edges) it
runs past Python's default recursion limit, which stops it as
BUDGET_EXCEEDED too.
"""

from starforest import Decomposition, Star, StarForest, validate_decomposition
from starforest.core import complete_graph_edges
from starforest.search import SearchResult, SearchStatus


class _BudgetStop(Exception):
    pass


def backtrack(n: int, k: int, m: int, max_nodes: int = 50_000_000) -> SearchResult:
    """The backtracker's answer for (n, k, m), with a validated certificate."""
    if m < n - 1 and (2 * m <= n or k * m < n):  # too few stars for n centers: decided before allocating K_n
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, 0)
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
    nodes = 0

    def solve(idx: int) -> bool:
        nonlocal used, slack, need, nodes
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
            if nodes > max_nodes:
                nodes = max_nodes
                raise _BudgetStop
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
    except (_BudgetStop, RecursionError):
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchResult(SearchStatus.EXHAUSTED_NOT_FOUND, None, nodes)
    cert = Decomposition(n=n, k=k, forests=tuple(
        StarForest(tuple(Star(c, tuple(v for v in range(n) if s[v] == c)) for c in range(n) if s[c] < -1))
        for s in star[:used]
    ))
    if not validate_decomposition(cert).ok:
        raise AssertionError(f"the backtracker's certificate for ({n}, {k}, {m}) fails validation")
    return SearchResult(SearchStatus.FOUND, cert, nodes)
