"""Versioned text interchange format for decompositions, plus DOT export.

The format is line oriented and human auditable::

    decomposition v1
    n 16
    k 4
    labels block12m4 1
    family k16
    meta <key> <free-form value>          (optional, repeatable)
    duplicates 0-2 1-3 ...                (optional)
    forest X(0,0)                         (name optional)
    star 0 : 3
    star 4 : 2 7 6 9 13
    ...

Parsing is strict: unknown directives, a repeated header line or meta key,
out-of-range vertices, repeated leaves or a center listed among its own leaves
are rejected with the offending line number.  ``parse(serialize(f)) == f``
for a ``DecompositionFile`` f, including forest and leaf order, forest names
and metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Decomposition,
    DecompositionError,
    Edge,
    LabelScheme,
    LabelSchemeError,
    MalformedStarError,
    Star,
    StarForest,
)

FORMAT_VERSION = 1
_HEADER = f"decomposition v{FORMAT_VERSION}"
_ONCE = frozenset({"n", "k", "labels", "family", "duplicates"})  # header lines that may not repeat


class ParseError(DecompositionError):
    pass


@dataclass(frozen=True)
class DecompositionFile:
    """A decomposition with its header; empty ``provenance`` = unnamed forests."""

    decomposition: Decomposition
    family: str | None = None
    provenance: tuple[str | None, ...] = ()  # forest index -> forest name
    raw_duplicates: tuple[Edge, ...] = ()  # edges the builder's raw tables placed twice
    meta: dict[str, str] = field(default_factory=dict, hash=False)  # a dict is unhashable

    def __post_init__(self) -> None:
        if self.provenance and len(self.provenance) != self.decomposition.forest_count:
            raise DecompositionError("provenance length must match the forest count")


def serialize(f: DecompositionFile) -> str:
    d, provenance = f.decomposition, f.provenance
    lines = [_HEADER, f"n {d.n}", f"k {d.k}"]
    if d.labels is not None:
        suffix = "" if d.labels.param is None else f" {d.labels.param}"
        lines.append(f"labels {d.labels.name}{suffix}")
    if f.family is not None:
        lines.append(f"family {f.family}")
    for key in sorted(f.meta):
        lines.append(f"meta {key} {f.meta[key]}")
    if f.raw_duplicates:
        lines.append("duplicates " + " ".join(f"{u}-{v}" for u, v in f.raw_duplicates))
    for fi, forest in enumerate(d.forests):
        name = provenance[fi] if provenance else None
        lines.append(f"forest {name}" if name else "forest")
        for star in forest.stars:
            lines.append(f"star {star.center} : " + " ".join(str(v) for v in star.leaves))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    # ASCII -?[0-9]+ only: int() alone also takes '1_0', '+2' and non-ASCII digits
    if token.isdigit() and token.isascii():
        return int(token)
    if not (token[:1] == "-" and token[1:].isdigit() and token.isascii()):
        raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}")
    value = int(token)  # -0 reads as 0
    if value < 0:
        raise ParseError(f"line {lineno}: {what} must be non-negative, got {value}")
    return value


def parse(text: str) -> DecompositionFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise ParseError(f"line 1: expected header {_HEADER!r}")

    n: int | None = None
    k: int | None = None
    labels: LabelScheme | None = None
    family: str | None = None
    meta: dict[str, str] = {}
    duplicates: list[Edge] = []
    forests: list[list[Star]] = []
    names: list[str | None] = []
    seen: set[str] = set()

    for lineno, rawline in enumerate(lines[1:], start=2):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive in _ONCE:
            if directive in seen:
                raise ParseError(f"line {lineno}: {directive} given twice")
            seen.add(directive)
        if directive == "n":
            n = _parse_int(tokens[1], lineno, "n") if len(tokens) == 2 else None
            if n is None or n < 1:
                raise ParseError(f"line {lineno}: expected 'n <positive integer>'")
        elif directive == "k":
            k = _parse_int(tokens[1], lineno, "k") if len(tokens) == 2 else None
            if k is None or k < 1:
                raise ParseError(f"line {lineno}: expected 'k <positive integer>'")
        elif directive == "labels":
            if len(tokens) not in (2, 3):
                raise ParseError(f"line {lineno}: expected 'labels <scheme> [param]'")
            param = _parse_int(tokens[2], lineno, "labels parameter") if len(tokens) == 3 else None
            try:
                labels = LabelScheme(tokens[1], param)
            except LabelSchemeError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif directive == "family":
            family = line.split(None, 1)[1] if len(tokens) > 1 else None
            if not family:
                raise ParseError(f"line {lineno}: empty family")
        elif directive == "meta":
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: expected 'meta <key> <value>'")
            if tokens[1] in meta:
                raise ParseError(f"line {lineno}: meta key {tokens[1]} given twice")
            meta[tokens[1]] = line.split(None, 2)[2]
        elif directive == "duplicates":
            for token in tokens[1:]:
                parts = token.split("-")
                if len(parts) != 2:
                    raise ParseError(f"line {lineno}: bad edge {token!r}, expected u-v")
                u = _parse_int(parts[0], lineno, "duplicate edge endpoint")
                v = _parse_int(parts[1], lineno, "duplicate edge endpoint")
                if u >= v:
                    raise ParseError(f"line {lineno}: edge {token!r} must satisfy u < v")
                duplicates.append((u, v))
        elif directive == "forest":
            forests.append([])
            names.append(line.split(None, 1)[1] if len(tokens) > 1 else None)
        elif directive == "star":
            if not forests:
                raise ParseError(f"line {lineno}: star before any forest")
            if n is None:
                raise ParseError(f"line {lineno}: star before n was given")
            if len(tokens) < 4 or tokens[2] != ":":
                raise ParseError(f"line {lineno}: expected 'star <center> : <leaf> ...'")
            center = _parse_int(tokens[1], lineno, "star center")
            leaves = [_parse_int(tok, lineno, "leaf") for tok in tokens[3:]]
            for v in (center, *leaves):
                if v >= n:
                    raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
            try:
                forests[-1].append(Star(center, tuple(leaves)))
            except MalformedStarError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        else:
            raise ParseError(f"line {lineno}: unknown directive {directive!r}")

    if n is None:
        raise ParseError("missing 'n' line")
    if k is None:
        raise ParseError("missing 'k' line")
    expected = labels.expected_n() if labels is not None else None
    if expected is not None and expected != n:
        raise ParseError(f"labels scheme describes n={expected} but file has n={n}")

    d = Decomposition(n=n, k=k, forests=tuple(StarForest(tuple(s)) for s in forests), labels=labels)
    return DecompositionFile(
        decomposition=d,
        family=family,
        provenance=tuple(names),
        raw_duplicates=tuple(duplicates),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
    "#dbdb8d", "#9edae5",
)


def _label(d: Decomposition, v: int) -> str:
    return d.labels.label(v) if d.labels is not None else str(v)


def export_dot(d: Decomposition) -> str:
    """One undirected graph with edges colored by forest.  Deterministic bytes."""
    out = ["graph decomposition {"]
    for v in range(d.n):
        out.append(f'  {v} [label="{_label(d, v)}"];')
    for fi, forest in enumerate(d.forests):
        color = _PALETTE[fi % len(_PALETTE)]
        for star in forest.stars:
            for leaf in star.leaves:
                out.append(f'  {star.center} -- {leaf} [color="{color}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def export_dot_per_forest(d: Decomposition) -> list[str]:
    """One graph per forest, each restricted to the vertices that forest touches."""
    texts = []
    for fi, forest in enumerate(d.forests):
        out = [f"graph forest_{fi} {{"]
        touched = sorted({v for s in forest.stars for v in (s.center, *s.leaves)})
        for v in touched:
            out.append(f'  {v} [label="{_label(d, v)}"];')
        for star in forest.stars:
            for leaf in star.leaves:
                out.append(f"  {star.center} -- {leaf};")
        out.append("}")
        texts.append("\n".join(out) + "\n")
    return texts
