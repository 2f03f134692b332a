"""Closed-form lower/upper bound formulas and the conjecture-comparison report.

Each formula is only quoted inside its proven range: outside it every
``lb_*`` and ``conjecture_value`` returns None rather than a guess, so
aggregation never silently weakens or overstates a bound.  Upper bounds quoted
by ``bound_report`` always come from a construction that was actually built
and validated, tagged ``construction:<family>`` after its row of
``construct.FAMILIES`` (or from the exhaustive search when enabled), never
from a bare formula: a family's ``size`` formula only picks which family to
build, and the build must match it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import PreconditionError
# bound_report looks each builder up by name in this module's globals, so a
# builder patched here (as the benchmark's tracer does) is the one that runs
from .construct import (
    FAMILIES,
    broken_double_star,
    conjecture_construction,
    f2_construction,
    f3_construction,
    k4_construction,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lb_star_forest(n: int) -> int | None:
    """ceil(n/2)+1, the floor on star-forest decompositions of K_n for n >= 4.

    The formula exceeds the true optimum for n <= 3 (F(K_2) = 1 and K_3 splits
    into two star forests), so it returns None there.
    """
    if n < 4:
        return None
    return _ceil_div(n, 2) + 1


def lb_bds(n: int, k: int) -> int | None:
    """n/2 + 2 for even n > 2k, from uniqueness of the (n/2+1)-forest decomposition.

    That unique decomposition, the broken double star, contains an (n/2)-star
    forest, which is not a k-star-forest when n > 2k.  Uniqueness fails on
    K_4: besides its 1-factorization, the broken double star there, the
    3-star staircase decomposes it, and ``verify.is_broken_double_star``
    rejects the staircase.  So the bound is quoted only from n = 6 up.
    Returns None outside the hypotheses.
    """
    if n % 2 == 1 or n <= 2 * k or n < 6:
        return None
    return n // 2 + 2


def lb_f3(n: int) -> int | None:
    """ceil(5n/9), the counting lower bound for 3-star-forests; None for n < 3."""
    if n < 3:
        return None
    return _ceil_div(5 * n, 9)


def f3_equality_feasible(n: int) -> bool:
    """Whether the edge-count obstruction leaves F_3(n) = 5n/9 possible.

    Matching the counting bound forces every forest to have exactly 3 stars,
    hence at most n-3 edges, so (n-3) * 5n/9 must reach n(n-1)/2.
    """
    if n < 9 or n % 9 != 0:
        raise PreconditionError("needs a positive multiple of 9")
    return (n - 3) * (5 * n // 9) >= n * (n - 1) // 2


def conjecture_value(n: int, k: int) -> int | None:
    """ceil((k+1)n/2k), the conjectured (and here refuted) lower bound; None unless n >= k >= 2."""
    if k < 2 or n < k:
        return None
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
    # in priority order: max() keeps the first of equal bounds; a k-star-forest
    # on n vertices holds at most n-1 edges, hence the trivial ceil(n/2)
    candidates = ((lb_f3(n) if k <= 3 else None, "f3-counting"), (lb_bds(n, k), "bds-uniqueness"),
                  (lb_star_forest(n), "akiyama-kano"), (_ceil_div(n, 2), "trivial"))
    return max((c for c in candidates if c[0] is not None), key=lambda c: c[0])


class BoundReport(NamedTuple):
    n: int
    k: int
    lower: int
    lower_source: str
    upper: int | None
    upper_source: str | None
    conjecture_value: int | None
    conjecture_refuted_here: bool


def bound_report(n: int, k: int, budget=None) -> BoundReport:
    """Aggregate the proven bounds for (n, k) and compare with the conjecture.

    Of the ``FAMILIES`` rows that apply, the first of least ``size`` is built
    and validated; a forest count that differs from its size formula raises.
    Given a ``SearchBudget``, the exhaustive oracle contributes on both sides;
    a blown budget only downgrades the search contribution, never the report.
    """
    if n < 1 or k < 1 or n < k:
        raise PreconditionError("needs n >= k >= 1")
    lower, lower_source = safe_lower_bound(n, k)
    ups = []
    sized = [(fam.size(*args), name, fam.builder, args)
             for name, fam in FAMILIES.items() if fam.upper and (args := fam.upper(n, k))]
    if sized:
        size, name, builder, args = min(sized, key=lambda c: c[0])
        count = globals()[builder](*args).decomposition.forest_count  # validated on build
        if count != size:
            raise AssertionError(f"{name}({', '.join(map(str, args))}) built {count} forests, its size formula says {size}")
        ups.append((count, f"construction:{name}"))

    if budget is not None:
        from .search import SearchStatus, f_exact  # deferred: search depends on this module

        res = f_exact(n, k, budget)
        if res.status is SearchStatus.FOUND:
            if res.value is None:
                raise AssertionError(f"search reported F_{k}({n}) found without a value")
            ups.append((res.value, "search"))
        if res.interval[0] > lower:  # FOUND's interval is (value, value)
            lower, lower_source = res.interval[0], "search"

    upper, upper_source = min(ups, key=lambda c: c[0]) if ups else (None, None)
    cv = conjecture_value(n, k)
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
