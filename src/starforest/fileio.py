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
are rejected with the offending line number.  ``parse(serialize(f))`` equals
``DecompositionFile(*f[:5])``, so a builder's ``ConstructionOutput`` reads back
as its first five fields, including forest and leaf order, forest names and
metadata: ``serialize`` rejects a family, forest name, meta key or meta value
that is empty, has leading or trailing whitespace or a line break (what
``str.splitlines`` splits on), and a meta key with any whitespace.

An integer is 1 to 640 ASCII digits, or ``-0`` for 0 outside a ``duplicates``
line.  640 is the least limit CPython lets ``sys.set_int_max_str_digits`` set,
so ``int()`` reads it under any setting; under the default of 4300 digits,
``str()`` also writes n(n-1)/2.

The vertex tokens of star lines are read through a per-file table from token
to id.  A token not yet in it is entered when it is an integer below n, so a
decomposition, whose vertices recur on line after line, checks each spelling
once.  A star line with any other token, and the one ``duplicates`` line, are
read token by token, so an error and its line number do not depend on the
table, which holds only the tokens that appear, never anything of size n.

A star line costs one split, one map through the table and one set.  The
table, or the token-by-token read that rejects signs other than ``-0``,
settles two of ``Star``'s rules: no id is negative, and a line of four or
more tokens has a leaf.  So when the set of center and leaves has one
member per token, every rule holds and the star is built without re-checking
them.  Any other line is handed to ``Star``, which words the error, so each
message and line number is the one ``Star`` gives, and the first error in
line order wins.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    CheckedRecord,
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
_MAX_DIGITS = 640  # the most characters an integer token may have, see above


class ParseError(DecompositionError):
    pass


class DecompositionFile(CheckedRecord, NamedTuple("DecompositionFile", [
        ("decomposition", Decomposition), ("family", str | None), ("provenance", tuple[str | None, ...]),
        ("raw_duplicates", tuple[Edge, ...]), ("meta", dict[str, str])])):
    """A decomposition with its header; ``provenance`` holds one name or None
    per forest, all None unless given.

    ``raw_duplicates`` holds the edges the paper's tables for it place twice,
    and ``meta`` is a fresh dict unless one is given.  ``==`` compares every
    field; ``hash`` leaves ``meta`` out.
    """

    __slots__ = ()

    def __new__(cls, decomposition: Decomposition, family: str | None = None, provenance: tuple[str | None, ...] = (),
                raw_duplicates: tuple[Edge, ...] = (), meta: dict[str, str] | None = None) -> DecompositionFile:
        provenance = provenance or (None,) * decomposition.forest_count
        if len(provenance) != decomposition.forest_count:
            raise DecompositionError("provenance length must match the forest count")
        return tuple.__new__(cls, (decomposition, family, provenance, raw_duplicates, {} if meta is None else meta))

    def __hash__(self) -> int:
        return hash(self[:4] + self[5:])  # every field but meta, a subclass's too


def _header_text(what: str, text: str) -> str:
    """``text`` if ``parse`` reads it back unchanged after a directive."""
    if text.splitlines() != [text] or text.strip() != text:
        raise DecompositionError(f"{what} {text!r} is empty, padded or split by a line break")
    return text


class _Spelling(dict[int, str]):
    """Vertex id -> its decimal text, entered the first time ``serialize`` or a DOT export writes the id.

    It holds only the ids that appear in the decomposition, never anything of size n.
    """

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def serialize(f: DecompositionFile) -> str:
    d = f.decomposition
    spell = _Spelling()  # each vertex recurs on star line after star line, so it is spelled once
    lines = [_HEADER, f"n {d.n}", f"k {d.k}"]
    if d.labels is not None:
        suffix = "" if d.labels.param is None else f" {d.labels.param}"
        lines.append(f"labels {d.labels.name}{suffix}")
    if f.family is not None:
        lines.append(f"family {_header_text('family', f.family)}")
    for key in sorted(f.meta):
        if key.split() != [key]:
            raise DecompositionError(f"meta key {key!r} is empty or contains whitespace")
        lines.append(f"meta {key} {_header_text('meta value', f.meta[key])}")
    if f.raw_duplicates:
        lines.append("duplicates " + " ".join(f"{u}-{v}" for u, v in f.raw_duplicates))
    for forest, name in zip(d.forests, f.provenance):
        lines.append("forest" if name is None else f"forest {_header_text('forest name', name)}")
        for star in forest.stars:
            lines.append(f"star {spell[star.center]} : " + " ".join(map(spell.__getitem__, star.leaves)))
    return "\n".join(lines) + "\n"


def _ascii_int(token: str) -> int | None:
    """``int(token)`` if ``token`` is 1 to 640 ASCII digits, else None; ``int()`` alone also takes '+2' or '1_0'."""
    return int(token) if token.isdigit() and token.isascii() and len(token) <= _MAX_DIGITS else None


def _parse_int(token: str, lineno: int, what: str) -> int:
    if len(token) > _MAX_DIGITS:
        raise ParseError(f"line {lineno}: {what} has {len(token)} characters, more than {_MAX_DIGITS}")
    if (value := _ascii_int(token)) is not None:
        return value
    if token[:1] != "-" or (value := _ascii_int(token[1:])) is None:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}")
    if value:
        raise ParseError(f"line {lineno}: {what} must be non-negative, got {-value}")
    return 0  # -0 reads as 0


class _VertexIds(dict[str, int]):
    """Vertex token -> id, for the integer tokens of 0..n-1, entered as star lines read them.

    A token of any other form raises ``KeyError`` and is not entered, so its
    line is re-read token by token, which words the error.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, token: str) -> int:
        if (v := _ascii_int(token)) is None or v >= self.n:
            raise KeyError(token)
        self[token] = v
        return v


def _star_vertices(tokens: list[str], lineno: int, n: int) -> tuple[int, tuple[int, ...]]:
    """The center and leaves of a star line, checked token by token as integers in 0..n-1."""
    center = _parse_int(tokens[1], lineno, "star center")  # also reads '-0' as 0
    leaves = tuple(_parse_int(tok, lineno, "leaf") for tok in tokens[3:])
    if center >= n or max(leaves) >= n:
        v = next(v for v in (center, *leaves) if v >= n)  # the first in line order
        raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
    return center, leaves


def _duplicate_edges(tokens: list[str], lineno: int) -> list[Edge]:
    """The edges of a ``duplicates`` line, each ``u-v`` with u < v; a vertex >= n is left to ``parse``."""
    edges: list[Edge] = []
    for token in tokens[1:]:
        parts = token.split("-")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: bad edge {token!r}, expected u-v")
        u = _parse_int(parts[0], lineno, "duplicate edge endpoint")
        v = _parse_int(parts[1], lineno, "duplicate edge endpoint")
        if u >= v:
            raise ParseError(f"line {lineno}: edge {token!r} must satisfy u < v")
        edges.append((u, v))
    return edges


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
    dup_lineno = 0

    for lineno, rawline in enumerate(lines[1:], start=2):
        tokens = rawline.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "star":  # the common line, so tested first
            if not forests:
                raise ParseError(f"line {lineno}: star before any forest")
            if n is None:
                raise ParseError(f"line {lineno}: star before n was given")
            if len(tokens) < 4 or tokens[2] != ":":
                raise ParseError(f"line {lineno}: expected 'star <center> : <leaf> ...'")
            try:
                center, leaves = ids[tokens[1]], tuple(map(ids.__getitem__, tokens[3:]))
            except KeyError:  # a sign, '-0', a bad token or one out of range
                center, leaves = _star_vertices(tokens, lineno, n)
            if len({center, *leaves}) != len(leaves) + 1:  # a vertex twice: Star words which
                try:
                    Star(center, leaves)
                except MalformedStarError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
            forests[-1].append(tuple.__new__(Star, (center, leaves)))  # Star's rules hold, see the module docstring
            continue
        if directive[0] == "#":
            continue
        line = rawline.strip()  # a header, meta or forest line
        if directive in _ONCE:
            if directive in seen:
                raise ParseError(f"line {lineno}: {directive} given twice")
            seen.add(directive)
        if directive in ("n", "k"):
            value = _parse_int(tokens[1], lineno, directive) if len(tokens) == 2 else None
            if value is None or value < 1:
                raise ParseError(f"line {lineno}: expected '{directive} <positive integer>'")
            if directive == "n":
                n, ids = value, _VertexIds(value)
            else:
                k = value
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
            dup_lineno = lineno
            duplicates = _duplicate_edges(tokens, lineno)
        elif directive == "forest":
            forests.append([])
            names.append(line.split(None, 1)[1] if len(tokens) > 1 else None)
        else:
            raise ParseError(f"line {lineno}: unknown directive {directive!r}")

    if n is None:
        raise ParseError("missing 'n' line")
    if k is None:
        raise ParseError("missing 'k' line")
    for _, v in duplicates:  # checked here because the line may come before n
        if v >= n:
            raise ParseError(f"line {dup_lineno}: vertex {v} out of range for n={n}")
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


def export_dot(d: Decomposition) -> str:
    """One undirected graph with edges colored by forest.  Deterministic bytes."""
    spell = _Spelling()  # each vertex is a leaf in forest after forest, so it is spelled once
    out = ["graph decomposition {"]
    for v in range(d.n):
        out.append(f'  {v} [label="{d.label(v)}"];')
    for fi, forest in enumerate(d.forests):
        tail = f' [color="{_PALETTE[fi % len(_PALETTE)]}"];'
        for star in forest.stars:  # one string per star, one line per leaf
            head = f"  {spell[star.center]} -- "
            out.append(head + f"{tail}\n{head}".join(map(spell.__getitem__, star.leaves)) + tail)
    out.append("}")
    return "\n".join(out) + "\n"


def export_dot_per_forest(d: Decomposition) -> list[str]:
    """One graph per forest, each restricted to the vertices that forest touches."""
    spell = _Spelling()
    texts = []
    for fi, forest in enumerate(d.forests):
        out = [f"graph forest_{fi} {{"]
        touched = sorted({v for s in forest.stars for v in (s.center, *s.leaves)})
        for v in touched:
            out.append(f'  {v} [label="{d.label(v)}"];')
        for star in forest.stars:
            head = f"  {spell[star.center]} -- "
            out.append(head + f";\n{head}".join(map(spell.__getitem__, star.leaves)) + ";")
        out.append("}")
        texts.append("\n".join(out) + "\n")
    return texts
