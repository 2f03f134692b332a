"""Closed-form lower/upper bound formulas and the conjecture-comparison report.

Lower bounds are only quoted inside their proven ranges; outside them the
helpers return None rather than a guess, so aggregation never silently weakens
or overstates a bound.  Upper bounds quoted by ``bound_report`` always come
from a construction that was actually built and validated (or from the
exhaustive search when enabled), never from a bare formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError
from .construct import (
    ConstructionOutput,
    conjecture_construction,
    f2_construction,
    f3_construction,
    k4_construction,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lb_star_forest(n: int) -> int:
    """ceil(n/2)+1, the floor on star-forest decompositions of K_n.

    Exceeds the true optimum for n <= 3 (K_3 splits into two star forests),
    so aggregators only quote it from n = 4 on.
    """
    if n < 2:
        raise PreconditionError("needs n >= 2")
    return _ceil_div(n, 2) + 1


def lb_bds(n: int, k: int) -> int | None:
    """n/2 + 2 for even n > 2k, from uniqueness of the (n/2+1)-forest decomposition.

    That unique decomposition contains an (n/2)-star forest, which is not a
    k-star-forest when n > 2k.  Uniqueness fails on K_4 (the 3-star staircase
    is not a broken double star), so the bound is quoted only from n = 6 up.
    Returns None outside the hypotheses.
    """
    if n % 2 == 1 or n <= 2 * k or n < 6:
        return None
    return n // 2 + 2


def lb_f3(n: int) -> int:
    """ceil(5n/9), the counting lower bound for 3-star-forests."""
    if n < 3:
        raise PreconditionError("needs n >= 3")
    return _ceil_div(5 * n, 9)


def f3_equality_feasible(n: int) -> bool:
    """Whether the edge-count obstruction leaves F_3(n) = 5n/9 possible.

    Matching the counting bound forces every forest to have exactly 3 stars,
    hence at most n-3 edges, so (n-3) * 5n/9 must reach n(n-1)/2.
    """
    if n < 9 or n % 9 != 0:
        raise PreconditionError("needs a positive multiple of 9")
    return (n - 3) * (5 * n // 9) >= n * (n - 1) // 2


def conjecture_value(n: int, k: int) -> int:
    """ceil((k+1)n/2k), the conjectured (and here refuted) general lower bound."""
    if k < 2 or n < k:
        raise PreconditionError("needs n >= k >= 2")
    return _ceil_div((k + 1) * n, 2 * k)


_LOWER_PRIORITY = ("f3-counting", "bds-uniqueness", "akiyama-kano", "trivial")


def safe_lower_bound(n: int, k: int) -> tuple[int, str]:
    """Best proven lower bound on F_k(n) with its source tag.

    Safe for every n >= 1: each candidate is restricted to the range where it
    is actually a valid bound.
    """
    if n < 1 or k < 1:
        raise PreconditionError("needs n >= 1 and k >= 1")
    if n == 1:
        return 0, "trivial"
    # a k-star-forest on n vertices holds at most n-1 edges
    candidates: list[tuple[int, str]] = [(_ceil_div(n, 2), "trivial")]
    if n >= 4:
        candidates.append((lb_star_forest(n), "akiyama-kano"))
    if k <= 3 and n >= 3:
        candidates.append((lb_f3(n), "f3-counting"))
    b = lb_bds(n, k)
    if b is not None:
        candidates.append((b, "bds-uniqueness"))
    best = max(v for v, _ in candidates)
    for tag in _LOWER_PRIORITY:
        if (best, tag) in candidates:
            return best, tag
    return best, candidates[0][1]


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    lower: int
    lower_source: str
    upper: int | None
    upper_source: str | None
    conjecture_value: int | None
    conjecture_refuted_here: bool


_UPPER_PRIORITY = ("construction:k4gen", "construction:f3", "construction:f2",
                   "construction:conjecture", "search")


def _upper_candidates(n: int, k: int) -> list[tuple[int, str]]:
    ups: list[tuple[int, str]] = []

    def add(out: ConstructionOutput, tag: str) -> None:
        # construction outputs validate on build; quote the realized size
        ups.append((out.forest_count, tag))

    if k >= 2 and n % 2 == 0 and n >= 4:
        add(f2_construction(n), "construction:f2")
        if k > 2 and n >= 2 * k:
            add(conjecture_construction(n, k), "construction:conjecture")
    if k >= 3 and n >= 27 and n % 27 == 0:
        add(f3_construction(n), "construction:f3")
    if k >= 4 and n >= 16 and n % 12 == 4:
        add(k4_construction((n - 4) // 12), "construction:k4gen")
    return ups


def bound_report(n: int, k: int, use_search: bool = False, budget=None) -> BoundReport:
    """Aggregate the proven bounds for (n, k) and compare with the conjecture.

    With ``use_search`` the exhaustive oracle contributes on both sides; a
    blown budget only downgrades the search contribution, never the report.
    """
    if n < 1 or k < 1 or n < k:
        raise PreconditionError("needs n >= k >= 1")
    lower, lower_source = safe_lower_bound(n, k)
    ups = _upper_candidates(n, k)

    if use_search:
        from .search import SearchStatus, f_exact  # deferred: search depends on this module

        res = f_exact(n, k, budget)
        if res.status is SearchStatus.FOUND:
            if res.value is None:
                raise AssertionError(f"search reported F_{k}({n}) found without a value")
            ups.append((res.value, "search"))
            if res.value > lower:
                lower, lower_source = res.value, "search"
        elif res.interval[0] > lower:
            lower, lower_source = res.interval[0], "search"

    upper: int | None = None
    upper_source: str | None = None
    if ups:
        upper = min(v for v, _ in ups)
        for tag in _UPPER_PRIORITY:
            if (upper, tag) in ups:
                upper_source = tag
                break
    cv = conjecture_value(n, k) if k >= 2 and n >= k else None
    refuted = upper is not None and cv is not None and upper < cv
    return BoundReport(
        n=n,
        k=k,
        lower=lower,
        lower_source=lower_source,
        upper=upper,
        upper_source=upper_source,
        conjecture_value=cv,
        conjecture_refuted_here=refuted,
    )
