"""Closed-form lower/upper bound formulas and the conjecture-comparison report.

Lower bounds are only quoted inside their proven ranges; outside them the
helpers return None rather than a guess, so aggregation never silently weakens
or overstates a bound.  Upper bounds quoted by ``bound_report`` always come
from a construction that was actually built and validated, tagged
``construction:<family>`` after its row of ``construct.FAMILIES`` (or from the
exhaustive search when enabled), never from a bare formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError
# bound_report looks each builder up by name in this module's globals, so a
# builder patched here (as the benchmark's tracer does) is the one that runs
from .construct import (
    FAMILIES,
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


def safe_lower_bound(n: int, k: int) -> tuple[int, str]:
    """Best proven lower bound on F_k(n) with its source tag.

    Safe for every n >= 1: each candidate is restricted to the range where it
    is actually a valid bound.
    """
    if n < 1 or k < 1:
        raise PreconditionError("needs n >= 1 and k >= 1")
    if n == 1:
        return 0, "trivial"
    # in priority order: max() keeps the first of equal bounds
    candidates: list[tuple[int, str]] = []
    if k <= 3 and n >= 3:
        candidates.append((lb_f3(n), "f3-counting"))
    b = lb_bds(n, k)
    if b is not None:
        candidates.append((b, "bds-uniqueness"))
    if n >= 4:
        candidates.append((lb_star_forest(n), "akiyama-kano"))
    # a k-star-forest on n vertices holds at most n-1 edges
    candidates.append((_ceil_div(n, 2), "trivial"))
    return max(candidates, key=lambda c: c[0])


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


def bound_report(n: int, k: int, use_search: bool = False, budget=None) -> BoundReport:
    """Aggregate the proven bounds for (n, k) and compare with the conjecture.

    With ``use_search`` the exhaustive oracle contributes on both sides; a
    blown budget only downgrades the search contribution, never the report.
    """
    if n < 1 or k < 1 or n < k:
        raise PreconditionError("needs n >= k >= 1")
    lower, lower_source = safe_lower_bound(n, k)
    ups = [(globals()[fam.builder](*args).forest_count, f"construction:{name}")  # validated on build
           for name, fam in FAMILIES.items() if fam.upper and (args := fam.upper(n, k))]

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

    upper, upper_source = min(ups, key=lambda c: c[0]) if ups else (None, None)
    cv = conjecture_value(n, k) if k >= 2 else None
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
