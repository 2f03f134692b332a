"""Deterministic generators for every decomposition family, and ``FAMILIES``,
the one table of them that ``construct --family`` and ``bound_report`` both
read.

Each builder writes tables that place every edge of K_n once and hands them
to ``_finalize``, which makes each raw star a ``Star`` as written and
validates the result.  Where the paper's tables place an edge twice (k4gen,
k16, blowup and f3), the builder writes it where they first place it, and
``raw_edge_slots`` and ``raw_duplicates`` state the paper's tables.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, NamedTuple

from .core import (
    Decomposition,
    Edge,
    LabelScheme,
    PreconditionError,
    Star,
    StarForest,
)
from .fileio import DecompositionFile
from .verify import validate_decomposition

RawStar = tuple[int, list[int] | tuple[int, ...]]
RawForest = list[RawStar]


class ConstructionOutput(NamedTuple("ConstructionOutput", [
        ("decomposition", Decomposition), ("family", str | None), ("provenance", tuple[str | None, ...]),
        ("raw_duplicates", tuple[Edge, ...]), ("meta", dict[str, str]), ("raw_edge_slots", tuple[int, ...])]),
        DecompositionFile):
    """A builder's ``DecompositionFile``, validated by ``_finalize``, with a sixth
    field ``raw_edge_slots``: the leaf count per forest of the paper's tables,
    duplicate placements included.  The first base gives the six fields,
    ``repr`` and ``_replace``; the second ``hash``."""

    __slots__ = ()

    def __new__(cls, decomposition: Decomposition, family: str | None = None, provenance: tuple[str | None, ...] = (),
                raw_duplicates: tuple[Edge, ...] = (), meta: dict[str, str] | None = None, *,
                raw_edge_slots: tuple[int, ...]) -> ConstructionOutput:
        base = DecompositionFile(decomposition, family, provenance, raw_duplicates, meta)
        return tuple.__new__(cls, (*base, raw_edge_slots))

    @classmethod
    def _make(cls, fields) -> ConstructionOutput:
        *base, raw_edge_slots = fields
        return cls(*base, raw_edge_slots=raw_edge_slots)


def _finalize(n: int, k: int, named_forests: list[tuple[str, RawForest]], family: str,
              labels: LabelScheme | None = None) -> ConstructionOutput:
    """The tables as a ``ConstructionOutput``, validated as a decomposition of K_n into k-star-forests.

    Each raw star becomes a ``Star`` as written, so an edge placed twice
    fails validation as ``duplicated``.  ``raw_edge_slots`` is each forest's
    leaf count and ``raw_duplicates`` is empty; a builder whose paper tables
    place some edges twice replaces both.
    """
    forests = tuple(StarForest(tuple(Star(center, leaves) for center, leaves in raw)) for _, raw in named_forests)
    d = Decomposition(n=n, k=k, forests=forests, labels=labels)
    report = validate_decomposition(d)
    if not report.ok:
        raise AssertionError(
            f"{family}: construction failed validation "
            f"(malformed={report.malformed[:3]}, k_violations={report.k_violations[:3]}, "
            f"missing={tuple(islice(report.coverage.missing, 5))}, duplicated={report.coverage.duplicated[:5]})"
        )
    return ConstructionOutput(
        decomposition=d,
        family=family,
        provenance=tuple(name for name, _ in named_forests),
        raw_edge_slots=tuple(f.edge_count() for f in forests),
    )


# ---------------------------------------------------------------------------
# Broken double star and the matching completions
# ---------------------------------------------------------------------------


def _double_star_forests(t: int) -> list[tuple[str, RawForest]]:
    # forest i: centers i and i+t, each grabbing the t-1 vertices after it
    n = 2 * t
    named: list[tuple[str, RawForest]] = []
    for i in range(t):
        lo = (i, [(i + s) % n for s in range(1, t)])
        hi = ((i + t) % n, [(i + t + s) % n for s in range(1, t)])
        named.append((f"dstar({i})", [lo, hi]))
    return named


def broken_double_star(t: int) -> ConstructionOutput:
    """The (t+1)-forest decomposition of K_{2t}: t spanning two-star forests
    covering everything except the antipodal perfect matching, plus that
    matching folded into one t-star forest, also listed as
    ``meta["matching"] == "0-t 1-(t+1) ..."``."""
    if t < 2:
        raise PreconditionError("broken double star needs t >= 2")
    named = _double_star_forests(t)
    named.append(("matching", [(i, [i + t]) for i in range(t)]))
    out = _finalize(2 * t, t, named, family="bds")
    return out._replace(meta={"matching": " ".join(f"{i}-{i + t}" for i in range(t))})


def conjecture_construction(n: int, k: int) -> ConstructionOutput:
    """n/2 double-star forests plus the antipodal matching split into
    ceil(n/2k) groups of at most k edges, each group one k-star-forest."""
    if n % 2 == 1:
        raise PreconditionError("only even vertex counts are supported")
    if k < 2:
        raise PreconditionError("needs k >= 2")
    if n < 2 * k:
        raise PreconditionError("needs n >= 2k so matching groups are well defined")
    t = n // 2
    named = _double_star_forests(t)
    for g, lo in enumerate(range(0, t, k)):
        group = [(i, [i + t]) for i in range(lo, min(lo + k, t))]
        named.append((f"matching({g})", group))
    return _finalize(n, k, named, family="conjecture")


def f2_construction(n: int) -> ConstructionOutput:
    """ceil(3n/4) two-star forests for even n: the k=2 matching completion."""
    if n % 2 == 1 or n < 4:
        raise PreconditionError("needs an even n >= 4")
    return conjecture_construction(n, 2)._replace(family="f2")


# ---------------------------------------------------------------------------
# K_27 into fifteen 3-star-forests
# ---------------------------------------------------------------------------

# Leaf offsets (di, dj) per target layer for the three stars of the grid
# forest rooted over cell (i,j); first coordinate pair is arithmetic mod 3,
# the layer index is literal.
_GRID_LEAVES = {
    0: [(0, (0, 1)), (0, (1, 0)), (0, (1, -1)), (0, (-1, -1)),
        (1, (0, -1)), (1, (-1, 0)), (1, (-1, 1)), (1, (1, 1)),
        (2, (0, -1)), (2, (-1, 0)), (2, (-1, 1)), (2, (1, 1))],
    1: [(1, (1, 0)), (1, (-1, -1)),
        (2, (1, 0)), (2, (-1, -1)),
        (0, (-1, 0)), (0, (1, 1))],
    2: [(2, (0, 1)), (2, (1, -1)),
        (1, (0, 1)), (1, (1, -1)),
        (0, (0, -1)), (0, (-1, 1))],
}
# One star per cell of the fixed row; the row forests for layer 1 vary i at
# fixed j, the ones for layer 2 vary j at fixed i.
_LAYER1_ROW_LEAVES = [
    (1, (1, -1)), (1, (0, 1)),
    (2, (1, -1)), (2, (0, 1)), (2, (0, 0)),
    (0, (-1, 1)), (0, (0, -1)), (0, (0, 0)),
]
_LAYER2_ROW_LEAVES = [
    (2, (1, 0)), (2, (-1, -1)),
    (1, (1, 0)), (1, (-1, -1)),
    (0, (-1, 0)), (0, (1, 1)), (0, (0, 0)),
]


def _cube(i: int, j: int, layer: int) -> int:
    return 9 * (i % 3) + 3 * (j % 3) + layer


def _k27_star(i: int, j: int, layer: int, table: list[tuple[int, tuple[int, int]]]) -> RawStar:
    """The star centered over cell (i, j) in ``layer``, its leaves placed by ``table``."""
    return _cube(i, j, layer), [_cube(i + di, j + dj, lyr) for lyr, (di, dj) in table]


def k27() -> ConstructionOutput:
    """Decomposition of K_27 into fifteen 3-star-forests, every edge exactly once."""
    named: list[tuple[str, RawForest]] = [
        (f"S({i},{j})", [_k27_star(i, j, layer, _GRID_LEAVES[layer]) for layer in range(3)])
        for i in range(3) for j in range(3)]
    named += [(f"X({j})", [_k27_star(i, j, 1, _LAYER1_ROW_LEAVES) for i in range(3)]) for j in range(3)]
    named += [(f"Y({i})", [_k27_star(i, j, 2, _LAYER2_ROW_LEAVES) for j in range(3)]) for i in range(3)]
    return _finalize(27, 3, named, family="k27", labels=LabelScheme("f3cube"))


# ---------------------------------------------------------------------------
# K_16 and the general 12m+4 family of 4-star-forests
# ---------------------------------------------------------------------------


def k16() -> ConstructionOutput:
    """Decomposition of K_16 into ten 4-star-forests over blocks A0, B, C, A1.

    K_16 is the m=1 member of the 12m+4 family, kept under its own family
    name.  The paper's tables place 128 edge slots; the eight diagonal edges
    P(i)P(i+2) of the four blocks are each placed twice there and once here.
    """
    return k4_construction(1)._replace(family="k16")


def k4_construction(m: int) -> ConstructionOutput:
    """Decomposition of K_{12m+4} into 6m+4 four-star-forests.

    Blocks A_0..A_m, B_0..B_{m-1}, C_0..C_{m-1} of size 4.  Forests: one per
    quad {A_k(i), B_k(i), C_k(i), A_{k+1}(i)}, one per B block, one per C
    block, and four two-star forests rooted in A_0 (Y) and A_m (Z).  In the
    paper's tables every 4-star forest places n-4 edge slots and every 2-star
    forest n-2, and the n/2 diagonal edges P_k(i)P_k(i+2) are placed twice;
    ``raw_edge_slots`` keeps those counts.  Here X(k,i) with i in {2, 3}
    leaves its diagonals B_k(i)B_k(i+2), C_k(i)C_k(i+2), A_{k+1}(i)A_{k+1}(i+2)
    to X(k,i-2), and Y(1) leaves A_0(j)A_0(j+2) to Y(0).
    """
    if m < 1:
        raise PreconditionError("k4_construction needs m >= 1")
    n = 12 * m + 4

    def A(x: int, i: int) -> int:
        return 12 * x + i % 4

    def B(x: int, i: int) -> int:
        return 12 * x + 4 + i % 4

    def C(x: int, i: int) -> int:
        return 12 * x + 8 + i % 4

    named: list[tuple[str, RawForest]] = []

    # At segment distance exactly 1 the generic leaf offsets below would land
    # on vertices the short-distance leaves already occupy (each cross-block
    # forest must span all n vertices with every non-center vertex a leaf
    # exactly once).  The neighbouring-segment terms therefore use shifted
    # indices; the shifts are the unique assignment that keeps every forest's
    # stars vertex-disjoint and every edge covered once.
    for k in range(m):
        for i in range(4):
            own = i < 2  # X(k,i) places its three block diagonals itself; for i >= 2 X(k,i-2) did
            # star at A_k(i): one edge back inside its block, the rest down
            # into strictly lower blocks
            a_lo = [A(k, i - 1)]
            if k >= 1:
                a_lo += [B(k - 1, i + 1), B(k - 1, i + 2), C(k - 1, i - 1), C(k - 1, i + 2)]
            for j in range(k):
                a_lo += [A(j, i + 1), A(j, i - 1)]
            for j in range(k - 1):
                a_lo += [B(j, i - 1), B(j, i), C(j, i), C(j, i + 2)]

            b = [A(k, i + 2), B(k, i - 1), *[B(k, i + 2)] * own, C(k, i + 1), A(k + 1, i + 1)]
            for j in range(k):
                b += [A(j, i), B(j, i + 1) if j < k - 1 else B(j, i - 1), C(j, i + 1)]
            for l in range(k + 1, m):
                b += [A(l + 1, i - 1), B(l, i), C(l, i) if l > k + 1 else C(l, i - 1)]

            # the C star's long leaves are stated for center C_k(i+2); shifting
            # i by 2 re-homes them onto this forest's own center C_k(i)
            c = [A(k, i + 1), B(k, i + 1), C(k, i - 1), *[C(k, i + 2)] * own, A(k + 1, i - 1)]
            for j in range(k):
                c += [A(j, i + 2),
                      B(j, i + 2) if j < k - 1 else B(j, i),
                      C(j, i - 1) if j < k - 1 else C(j, i)]
            for l in range(k + 1, m):
                c += [A(l + 1, i + 1) if l < m - 1 else A(m, i + 2),
                      B(l, i + 2),
                      C(l, i + 2) if l > k + 1 else C(l, i + 1)]

            a_hi = [A(k + 1, i + 2)] * own
            if k + 1 <= m - 1:
                a_hi += [B(k + 1, i - 1), B(k + 1, i + 1), C(k + 1, i), C(k + 1, i + 2)]
            for l in range(k + 2, m):
                a_hi += [A(l, i), A(l, i + 2), B(l, i - 1), B(l, i + 1), C(l, i - 1), C(l, i + 1)]
            if k <= m - 2:  # at k = m-1 these would repeat short-distance edges
                a_hi += [A(m, i), A(m, i + 1)]

            quad: RawForest = [(A(k, i), a_lo), (B(k, i), b), (C(k, i), c)]
            if a_hi:  # at k = m-1 and i >= 2 the A_m star has no edge left
                quad.append((A(k + 1, i), a_hi))
            named.append((f"X({k},{i})", quad))

    for k in range(m):
        bstars: RawForest = []
        for i in range(4):
            leaves = [A(k, i), C(k, i + 2), A(k + 1, i)]
            leaves += [A(j, i + 2) for j in range(k)]
            leaves += [A(lp, i + 2) for lp in range(k + 2, m)]
            if k <= m - 2:
                leaves.append(A(m, i))
            leaves += [B(j, i + 2) for j in range(k)]
            leaves += [B(l, i + 1) if l > k + 1 else B(l, i - 1) for l in range(k + 1, m)]
            leaves += [C(j, i - 1) for j in range(k)]
            leaves += [C(l, i + 1) for l in range(k + 1, m)]
            bstars.append((B(k, i), leaves))
        named.append((f"B({k})", bstars))

        cstars: RawForest = []
        for i in range(4):
            leaves = [A(k, i - 1), B(k, i), A(k + 1, i)]
            leaves += [A(j, i) for j in range(k)]
            leaves += [A(lp, i - 1) for lp in range(k + 2, m)]
            if k <= m - 2:
                leaves.append(A(m, i + 1))
            leaves += [B(j, i + 1) if j < k - 1 else B(j, i + 2) for j in range(k)]
            leaves += [B(l, i) for l in range(k + 1, m)]
            leaves += [C(j, i) if j < k - 1 else C(j, i + 2) for j in range(k)]
            leaves += [C(l, i - 1) for l in range(k + 1, m)]
            cstars.append((C(k, i), leaves))
        named.append((f"C({k})", cstars))

    # The edges between the first and the last A block admit no
    # rotation-symmetric split; this fixed 16-entry table hands each of them
    # to exactly one Y or Z forest.
    cross = {
        ("Y", 0): {A(0, 0): [A(m, 0), A(m, 1)], A(0, 1): [A(m, 2), A(m, 3)]},
        ("Y", 1): {A(0, 2): [A(m, 0), A(m, 1)], A(0, 3): [A(m, 2), A(m, 3)]},
        ("Z", 0): {A(m, 0): [A(0, 1), A(0, 3)], A(m, 2): [A(0, 0), A(0, 2)]},
        ("Z", 1): {A(m, 1): [A(0, 1), A(0, 3)], A(m, 3): [A(0, 0), A(0, 2)]},
    }
    for fi in range(2):
        stars: RawForest = []
        for j in (2 * fi, 2 * fi + 1):
            # Y(0) places both A_0 diagonals, so Y(1) leaves its A_0(j+2) out
            leaves = [B(0, j - 1), B(0, j + 1), C(0, j), C(0, j + 2), *[A(0, j + 2)] * (fi == 0)]
            # blocks adjacent to A_0 are already covered by the short rules
            for l in range(1, m):
                leaves += [A(l, j), A(l, j + 2), B(l, j + 1), B(l, j - 1), C(l, j + 1), C(l, j - 1)]
            leaves += cross[("Y", fi)][A(0, j)]
            stars.append((A(0, j), leaves))
        named.append((f"Y({fi})", stars))
    for fi in range(2):
        stars = []
        for j in (fi, fi + 2):
            leaves = [B(m - 1, j + 1), B(m - 1, j + 2), C(m - 1, j - 1), C(m - 1, j + 2), A(m, j + 1)]
            # A-neighbours run 1..m-1 (A_0 edges come from the cross table),
            # B/C-neighbours run 0..m-2 (B_{m-1}, C_{m-1} are short-distance)
            for l in range(1, m):
                leaves += [A(l, j + 1), A(l, j + 2)]
            for l in range(m - 1):
                leaves += [B(l, j + 2), B(l, j - 1), C(l, j), C(l, j + 1)]
            leaves += cross[("Z", fi)][A(m, j)]
            stars.append((A(m, j), leaves))
        named.append((f"Z({fi})", stars))

    out = _finalize(n, 4, named, family="k4gen", labels=LabelScheme("block12m4", m))
    # slot accounting: 4-star forests hold n-4 slots and 2-star forests n-2 in
    # the paper's tables, less the diagonals a forest leaves to an earlier one
    paper = tuple(n - 4 if name[0] in "XBC" else n - 2 for name in out.provenance)
    left = {f"X({k},{i})": 3 for k in range(m) for i in (2, 3)} | {"Y(1)": 2}
    for name, want, nslots in zip(out.provenance, paper, out.raw_edge_slots):
        if nslots != want - left.get(name, 0):
            raise AssertionError(f"{name}: {nslots} edge slots, expected {want - left.get(name, 0)}")
    diagonals = tuple((v, v + 2) for v in range(n) if v % 4 < 2)  # every block is 4 aligned vertices
    return out._replace(raw_duplicates=diagonals, raw_edge_slots=paper)


# ---------------------------------------------------------------------------
# Blowup
# ---------------------------------------------------------------------------


def blowup(base: DecompositionFile, t: int) -> ConstructionOutput:
    """Lift a decomposition of K_n to one of K_{tn} with t times as many forests.

    Vertex a of the base becomes the cluster {a*t+b : 0 <= b < t}.  Copy b of
    forest j keeps the base stars with every leaf fanned out across its
    cluster; in the first forest a center c centers, copy b of its star also
    adopts c*t+b' for b' > b, which places the cluster's inside edges once.
    ``raw_edge_slots`` and ``raw_duplicates`` state the paper's tables, where
    every copy of a star adopts all t-1 other copies in every forest.
    Unnamed base forests are called f{j} and a base without a family is
    called "decomposition"; the base's ``raw_duplicates`` and ``meta`` are
    not carried over.

    Requires a valid base using at most n-2 forests, which guarantees every
    base vertex is a center somewhere, so every cluster's inside edges get
    placed.  Every base is validated here, whatever its record type, so an
    invalid one is a ``PreconditionError`` before any table is built.
    """
    d = base.decomposition
    if t < 1:
        raise PreconditionError("blowup needs t >= 1")
    m, n = d.forest_count, d.n
    if m > n - 2:
        raise PreconditionError(f"blowup needs at most n-2 forests (m={m}, n={n})")
    if not validate_decomposition(d).ok:
        raise PreconditionError("blowup needs a valid base decomposition")
    return _blowup(base, t)


def _blowup(base: DecompositionFile, t: int) -> ConstructionOutput:
    """``blowup``'s tables, finalized, for a base known to meet its preconditions, as ``k27()``'s output does."""
    d, family = base.decomposition, base.family or "decomposition"
    names = [name or f"f{j}" for j, name in enumerate(base.provenance)]
    named: list[tuple[str, RawForest]] = []
    slots: list[int] = []
    placed: set[int] = set()  # the base centers whose clusters' inside edges are placed
    copies = range(t)
    for j, forest in enumerate(d.forests):
        # each star's fanned leaves, built once and shared by the t copies
        fanned = [(s.center * t, tuple([leaf * t + bp for leaf in s.leaves for bp in copies]), s.center not in placed)
                  for s in forest.stars]
        placed.update(s.center for s in forest.stars)
        for b in copies:
            named.append((f"{names[j]}@{b}", [(ct + b, leaves + tuple(range(ct + b + 1, ct + t)) if first else leaves)
                                              for ct, leaves, first in fanned]))
        slots += [t * forest.edge_count() + (t - 1) * len(forest.stars)] * t
    out = _finalize(t * d.n, d.k, named, family=f"blowup({family},{t})")
    inside = tuple((at + b, at + bp) for at in sorted(a * t for a in placed) for b in copies for bp in range(b + 1, t))
    return out._replace(raw_duplicates=inside, raw_edge_slots=tuple(slots))


def f3_construction(n: int) -> ConstructionOutput:
    """5n/9 three-star forests for any positive multiple of 27, by blowing up k27."""
    if n < 27 or n % 27 != 0:
        raise PreconditionError("needs a positive multiple of 27")
    return _blowup(k27(), n // 27)._replace(family="f3")


class Family(NamedTuple):
    flags: tuple[str, ...]  # the builder's arguments in order; "in" is the base file
    builder: str  # callers look it up by name, so a builder patched on their module runs
    # for bound_report: (n, k) -> the builder's args for a k-star-forest decomposition of K_n, or None
    upper: Callable[[int, int], tuple[int, ...] | None] | None = None
    # for bound_report, on every row with an upper: the builder's args -> its forest count
    size: Callable[..., int] | None = None


# bound_report's priority order: it builds the first family of least size, and
# conjecture ties f2, f3 and k4gen wherever both apply; bds is quoted only
# where 2k > n, as at 2k = n it ties conjecture
FAMILIES: dict[str, Family] = {
    "bds": Family(("t",), "broken_double_star", lambda n, k: (n // 2,) if n % 2 == 0 and n >= 6 and 2 * k > n else None,
                  lambda t: t + 1),
    "f2": Family(("n",), "f2_construction", lambda n, k: (n,) if k >= 2 and n % 2 == 0 and n >= 4 else None,
                 lambda n: -(-3 * n // 4)),
    "k27": Family((), "k27"),
    "f3": Family(("n",), "f3_construction", lambda n, k: (n,) if k >= 3 and n >= 27 and n % 27 == 0 else None,
                 lambda n: 5 * n // 9),
    "k16": Family((), "k16"),
    "k4gen": Family(("m",), "k4_construction",
                    lambda n, k: ((n - 4) // 12,) if k >= 4 and n >= 16 and n % 12 == 4 else None,
                    lambda m: 6 * m + 4),
    "conjecture": Family(("n", "k"), "conjecture_construction",
                         lambda n, k: (n, k) if k > 2 and n >= 2 * k and n % 2 == 0 else None,
                         lambda n, k: n // 2 - (-n // (2 * k))),
    "blowup": Family(("in", "t"), "blowup"),
}
