"""Inputs, operations and output checks of the three benchmark workloads.

Every operation is one ``starforest`` command line, run in-process through
``starforest.cli.main``.  The seed only shapes the generated input files (a
vertex permutation, a forest order, where a corruption lands, the order of
the search instances); the number and kind of operations never depend on it,
so runs with different seeds stay comparable.

``certify``  builds every family at n <= 81 and checks it three ways.
``search``   runs exhaustion proofs and minimisations of the exact oracle.
``triage``   feeds ``verify`` and ``analyze`` one seeded defect per file,
             plus two hostile inputs that the CLI does not handle yet.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

EXIT_OK, EXIT_INVALID, EXIT_USAGE = 0, 1, 2


@dataclass
class Outcome:
    exit_code: int | None
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI invocation and the check its output must pass.

    ``check`` returns None when the output is right, else the reason it is
    not.  ``known_defect`` names the exception a hostile input raises at the
    time the benchmark was written; an op that raises exactly it is counted
    in ``error_rate`` as a failed op of the program, not as a failure of the
    run, so that fixing the defect (exit 2) needs no change here.
    """

    command: str
    argv: list[str]
    check: Callable[[Outcome], str | None]
    known_defect: type[BaseException] | None = None
    instance: str = ""


# ---------------------------------------------------------------------------
# decomposition files, written by the benchmark itself
# ---------------------------------------------------------------------------


@dataclass
class Doc:
    """A decomposition in the `.sfd` line format, as mutable lists."""

    n: int
    k: int
    header: list[str]  # labels / family lines, copied verbatim
    forests: list[tuple[str | None, list[tuple[int, list[int]]]]]
    duplicates: list[tuple[int, int]] = field(default_factory=list)

    def text(self) -> str:
        lines = ["decomposition v1", f"n {self.n}", f"k {self.k}", *self.header]
        if self.duplicates:
            lines.append("duplicates " + " ".join(f"{u}-{v}" for u, v in self.duplicates))
        for name, stars in self.forests:
            lines.append(f"forest {name}" if name else "forest")
            for center, leaves in stars:
                lines.append(f"star {center} : " + " ".join(map(str, leaves)))
        return "\n".join(lines) + "\n"

    def forest_vertices(self, fi: int) -> set[int]:
        return {v for c, leaves in self.forests[fi][1] for v in (c, *leaves)}

    def edge_home(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Edge -> (forest index, star index) holding it."""
        home = {}
        for fi, (_, stars) in enumerate(self.forests):
            for si, (c, leaves) in enumerate(stars):
                for leaf in leaves:
                    home[_edge(c, leaf)] = (fi, si)
        return home

    def remove_edge(self, e: tuple[int, int]) -> None:
        fi, si = self.edge_home()[e]
        stars = self.forests[fi][1]
        c, leaves = stars[si]
        leaves.remove(e[0] if c == e[1] else e[1])
        if not leaves:
            del stars[si]


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def doc_from_output(out) -> Doc:
    d = out.decomposition
    header = []
    if d.labels is not None:
        header.append(f"labels {d.labels.name}" + ("" if d.labels.param is None else f" {d.labels.param}"))
    header.append(f"family {out.family}")
    forests = [
        (out.provenance[fi], [(s.center, list(s.leaves)) for s in f.stars])
        for fi, f in enumerate(d.forests)
    ]
    return Doc(d.n, d.k, header, forests, list(out.raw_duplicates))


def permuted(doc: Doc, rng: random.Random) -> Doc:
    """Random vertex relabelling and forest order: the same claim, other bytes."""
    pi = list(range(doc.n))
    rng.shuffle(pi)
    forests = [
        (name, [(pi[c], [pi[v] for v in leaves]) for c, leaves in stars]) for name, stars in doc.forests
    ]
    rng.shuffle(forests)
    dups = sorted(_edge(pi[u], pi[v]) for u, v in doc.duplicates)
    return Doc(doc.n, doc.k, list(doc.header), forests, dups)


def parse_sfd(text: str) -> Doc:
    """Minimal reader for the benchmark's own checks (search certificates)."""
    n = k = 0
    forests: list = []
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] == "n":
            n = int(tok[1])
        elif tok and tok[0] == "k":
            k = int(tok[1])
        elif tok and tok[0] == "forest":
            forests.append((None, []))
        elif tok and tok[0] == "star":
            forests[-1][1].append((int(tok[1]), [int(v) for v in tok[3:]]))
    return Doc(n, k, [], forests)


def decomposition_problem(doc: Doc) -> str | None:
    """Independent validity check: k-star-forests covering each edge of K_n once."""
    seen: set[tuple[int, int]] = set()
    for fi, (_, stars) in enumerate(doc.forests):
        if len(stars) > doc.k:
            return f"forest {fi} has {len(stars)} stars > k={doc.k}"
        verts = [v for c, leaves in stars for v in (c, *leaves)]
        if len(set(verts)) != len(verts) or any(not 0 <= v < doc.n for v in verts):
            return f"forest {fi} is not a star forest on 0..{doc.n - 1}"
        for c, leaves in stars:
            for leaf in leaves:
                e = _edge(c, leaf)
                if e in seen:
                    return f"edge {e} covered twice"
                seen.add(e)
    if len(seen) != doc.n * (doc.n - 1) // 2:
        return f"{doc.n * (doc.n - 1) // 2 - len(seen)} edges uncovered"
    return None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _json(out: Outcome) -> dict | None:
    try:
        return json.loads(out.stdout)
    except ValueError:
        return None


def check_verify(exit_code: int, **expect) -> Callable[[Outcome], str | None]:
    """`verify --json` must exit with ``exit_code`` and match every field given."""

    def check(out: Outcome) -> str | None:
        if out.exit_code != exit_code:
            return f"exit {out.exit_code}, expected {exit_code}"
        payload = _json(out)
        if payload is None:
            return "stdout is not JSON"
        for key, want in expect.items():
            if key == "malformed_vertex":
                msgs = payload["malformed"]
                if len(msgs) != 1 or f"vertex {want} appears in more than one star" not in msgs[0]:
                    return f"malformed={msgs[:3]}, expected one overlap at vertex {want}"
                continue
            got = len(payload["missing"]) if key == "missing_count" else payload.get(key)
            if got != want:
                return f"{key}={str(got)[:80]}, expected {str(want)[:80]}"
        return None

    return check


def check_analyze(valid: bool, exit_code: int | None = None, **expect) -> Callable[[Outcome], str | None]:
    """`analyze --json`: the ``valid`` field, plus the exit code where it is settled."""

    def check(out: Outcome) -> str | None:
        if exit_code is not None and out.exit_code != exit_code:
            return f"exit {out.exit_code}, expected {exit_code}"
        payload = _json(out)
        if payload is None:
            return "stdout is not JSON"
        if payload.get("valid") is not valid:
            return f"valid={payload.get('valid')}, expected {valid}"
        if "forests" in expect and len(payload["hyperedges"]) != expect["forests"]:
            return f"{len(payload['hyperedges'])} hyperedges, expected {expect['forests']}"
        if "p" in expect and payload["degree_profile"]["p"] != expect["p"]:
            return f"degree profile {payload['degree_profile']['p']}, expected {expect['p']}"
        if "broken_double_star" in expect and payload["broken_double_star"] is not expect["broken_double_star"]:
            return f"broken_double_star={payload['broken_double_star']}"
        return None

    return check


def check_exit(exit_code: int, stderr_has: str = "") -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.exit_code != exit_code:
            return f"exit {out.exit_code}, expected {exit_code}"
        if stderr_has not in out.stderr:
            return f"stderr {out.stderr.strip()[:80]!r} lacks {stderr_has!r}"
        return None

    return check


def check_sha256(path: Path, digest: str) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.exit_code != EXIT_OK:
            return f"exit {out.exit_code}"
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        return None if got == digest else f"sha256 {got[:12]} != recorded {digest[:12]}"

    return check


def check_dot(n: int) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.exit_code != EXIT_OK:
            return f"exit {out.exit_code}"
        edges = out.stdout.count(" -- ")
        nodes = out.stdout.count("[label=")
        if edges != n * (n - 1) // 2 or nodes != n:
            return f"{nodes} nodes / {edges} edges, expected {n} / {n * (n - 1) // 2}"
        return None

    return check


def check_json_equals(want: dict) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.exit_code != EXIT_OK:
            return f"exit {out.exit_code}"
        got = _json(out)
        return None if got == want else f"{got} != {want}"

    return check


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# key, construct flags, builder in starforest.construct, its arguments,
# forest count from the family's formula
CERTIFY_FAMILIES = (
    ("k27", ["--family", "k27"], "k27", (), 15),
    ("k16", ["--family", "k16"], "k16", (), 10),
    ("k4gen_m4", ["--family", "k4gen", "--m", "4"], "k4_construction", (4,), 6 * 4 + 4),
    ("k4gen_m6", ["--family", "k4gen", "--m", "6"], "k4_construction", (6,), 6 * 6 + 4),
    ("f3_n81", ["--family", "f3", "--n", "81"], "f3_construction", (81,), 5 * 81 // 9),
    ("f2_n76", ["--family", "f2", "--n", "76"], "f2_construction", (76,), math.ceil(3 * 76 / 4)),
    ("bds_t38", ["--family", "bds", "--t", "38"], "broken_double_star", (38,), 38 + 1),
    ("conjecture_n76_k4", ["--family", "conjecture", "--n", "76", "--k", "4"],
     "conjecture_construction", (76, 4), 76 // 2 + math.ceil(76 / (2 * 4))),
)
BOUNDS_ROWS = ((76, 4), (81, 3), (76, 2))
K27_PROFILE = {"1": 9, "2": 18}  # nine once-centers, eighteen twice-centers


def family_docs(construct, keys=None) -> dict[str, Doc]:
    """Build the certify families through the library, as benchmark-side Docs."""
    return {
        key: doc_from_output(getattr(construct, builder)(*args))
        for key, _, builder, args, _ in CERTIFY_FAMILIES
        if keys is None or key in keys
    }


def certify_ops(work: Path, rng: random.Random, construct, expected: dict) -> list[Op]:
    docs = family_docs(construct)
    ops: list[Op] = []
    for key, flags, _, _, forests in CERTIFY_FAMILIES:
        doc = permuted(docs[key], rng)
        src = work / f"{key}.sfd"
        src.write_text(doc.text(), encoding="utf-8")
        built = work / f"{key}.built.sfd"
        ops.append(Op("construct", ["construct", *flags, "--out", str(built)],
                      check_sha256(built, expected["construct_sha256"][key]), instance=key))
        n = doc.n
        ops.append(Op("verify", ["verify", "--json", "--in", str(src)],
                      check_verify(EXIT_OK, valid=True, n=n, k=doc.k, forests=forests,
                                   total_edges=n * (n - 1) // 2, covered_once=n * (n - 1) // 2,
                                   missing=[], duplicated=[], malformed=[], k_violations=[]),
                      instance=key))
        extra: dict = {"forests": forests}
        if key == "k27":
            extra["p"] = K27_PROFILE
        if key.startswith("bds"):
            extra["broken_double_star"] = True
        ops.append(Op("analyze", ["analyze", "--json", "--in", str(src)],
                      check_analyze(True, EXIT_OK, **extra), instance=key))
        ops.append(Op("export", ["export", "--format", "dot", "--in", str(src)], check_dot(n), instance=key))
    for n, k in BOUNDS_ROWS:
        ops.append(Op("bounds", ["bounds", "--json", "--n", str(n), "--k", str(k)],
                      check_json_equals(expected["bounds"][f"{n},{k}"]), instance=f"n{n}_k{k}"))
    return ops


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

EXHAUSTIONS = ((6, 2, 4), (7, 2, 4), (7, 3, 4), (7, 4, 4), (8, 2, 4))
MINIMISATIONS = {(6, 2): 5, (7, 3): 5, (7, 7): 5}  # known F_k(n)


def search_instance(n: int, k: int, m: int | None = None) -> str:
    return f"n{n}_k{k}" + ("" if m is None else f"_m{m}")


def check_exhausted(out: Outcome) -> str | None:
    if out.exit_code != EXIT_OK:
        return f"exit {out.exit_code}"
    payload = _json(out) or {}
    if payload.get("status") != "exhausted-not-found":
        return f"status {payload.get('status')}, expected exhausted-not-found"
    return None


def check_minimum(value: int, cert: Path) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.exit_code != EXIT_OK:
            return f"exit {out.exit_code}"
        payload = _json(out) or {}
        if payload.get("status") != "found" or payload.get("value") != value:
            return f"status {payload.get('status')} value {payload.get('value')}, expected found {value}"
        doc = parse_sfd(cert.read_text(encoding="utf-8"))
        if len(doc.forests) != value:
            return f"certificate has {len(doc.forests)} forests, expected {value}"
        return decomposition_problem(doc)

    return check


def search_ops(work: Path, rng: random.Random) -> list[Op]:
    ops = []
    for n, k, m in EXHAUSTIONS:
        ops.append(Op("search", ["search", "--json", "--n", str(n), "--k", str(k), "--max-forests", str(m)],
                      check_exhausted, instance=search_instance(n, k, m)))
    for (n, k), value in MINIMISATIONS.items():
        cert = work / f"cert_{search_instance(n, k)}.sfd"
        ops.append(Op("search", ["search", "--json", "--n", str(n), "--k", str(k), "--cert", str(cert)],
                      check_minimum(value, cert), instance=search_instance(n, k)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# triage: one seeded defect per file
# ---------------------------------------------------------------------------


def _drop_leaf(doc: Doc, rng: random.Random) -> dict:
    c, leaves = rng.choice([s for _, stars in doc.forests for s in stars if len(s[1]) >= 2])
    leaf = leaves.pop(rng.randrange(len(leaves)))
    return {"missing": [list(_edge(c, leaf))]}


def _copy_leaf(doc: Doc, rng: random.Random) -> dict:
    # a star of forest B takes a vertex absent from B as a leaf; that edge
    # already lies in another forest, so it is covered twice
    candidates = []
    for fi, (_, stars) in enumerate(doc.forests):
        absent = sorted(set(range(doc.n)) - doc.forest_vertices(fi))
        candidates += [(fi, si, v) for si in range(len(stars)) for v in absent]
    fi, si, v = rng.choice(candidates)
    c, leaves = doc.forests[fi][1][si]
    leaves.append(v)
    return {"duplicated": [[list(_edge(c, v)), 2]]}


def _overlap_stars(doc: Doc, rng: random.Random) -> dict:
    # move edge x-y into forest F, where x is a center of F and y a leaf of
    # another star of F: coverage is unchanged, y sits in two stars of F
    candidates = []
    for fi, (_, stars) in enumerate(doc.forests):
        for xi, (x, xleaves) in enumerate(stars):
            for zi, (_, zleaves) in enumerate(stars):
                if zi != xi:
                    candidates += [(fi, xi, y) for y in zleaves if y not in xleaves]
    fi, xi, y = rng.choice(candidates)
    x = doc.forests[fi][1][xi][0]
    doc.remove_edge(_edge(x, y))
    doc.forests[fi][1][xi][1].append(y)
    return {"malformed_vertex": y}


def _extra_star(doc: Doc, rng: random.Random) -> dict:
    # move edge a-b, both endpoints absent from a forest that already has k
    # stars, into that forest as a new star
    edges = sorted(doc.edge_home())
    candidates = []
    for fi, (_, stars) in enumerate(doc.forests):
        if len(stars) == doc.k:
            absent = set(range(doc.n)) - doc.forest_vertices(fi)
            candidates += [(fi, e) for e in edges if e[0] in absent and e[1] in absent]
    fi, (a, b) = rng.choice(candidates)
    doc.remove_edge((a, b))
    doc.forests[fi][1].append((a, [b]))
    return {"k_violations": [fi]}


def _out_of_range(doc: Doc, rng: random.Random) -> None:
    fi = rng.randrange(len(doc.forests))
    _, leaves = rng.choice(doc.forests[fi][1])
    leaves[rng.randrange(len(leaves))] = doc.n + rng.randrange(doc.n)


def _truncate(doc: Doc, rng: random.Random) -> tuple[str, list]:
    """Cut the file inside one of its last ten star lines, after a whole leaf
    (or before the line, when it has a single leaf)."""
    lines = doc.text().splitlines()
    star_lines = [i for i, ln in enumerate(lines) if ln.startswith("star ")]
    cut = rng.choice(star_lines[-10:])
    tokens = lines[cut].split()
    keep = rng.randrange(1, len(tokens) - 3) if len(tokens) > 4 else 0
    lost = [_edge(int(tokens[1]), int(v)) for v in tokens[3 + keep:]]
    for ln in lines[cut + 1:]:
        if ln.startswith("star "):
            t = ln.split()
            lost += [_edge(int(t[1]), int(v)) for v in t[3:]]
    text = "\n".join(lines[:cut] + ([" ".join(tokens[:3 + keep])] if keep else []))
    return text, sorted([list(e) for e in lost])


EMPTY_CLAIM_N = 700


def triage_ops(work: Path, rng: random.Random, construct) -> list[Op]:
    docs = family_docs(construct, {"f3_n81", "k27", "k4gen_m4", "f2_n76", "bds_t38", "conjecture_n76_k4"})
    cases: list[tuple[str, Path, Callable, Callable]] = []

    def add(name: str, content: str | bytes, verify_check: Callable, analyze_check: Callable) -> None:
        path = work / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        cases.append((name, path, verify_check, analyze_check))

    invalid = check_analyze(False)
    for name, key, corrupt in (
        ("dropped_leaf", "f3_n81", _drop_leaf),
        ("copied_leaf", "k27", _copy_leaf),
        ("overlapping_stars", "k4gen_m4", _overlap_stars),
        ("extra_star", "f2_n76", _extra_star),
    ):
        doc = permuted(docs[key], rng)
        expect = {"missing": [], "duplicated": [], "malformed": [], "k_violations": []}
        expect.update(corrupt(doc, rng))
        if "malformed_vertex" in expect:
            del expect["malformed"]
        add(f"{name}.sfd", doc.text(), check_verify(EXIT_INVALID, valid=False, **expect), invalid)

    doc = permuted(docs["bds_t38"], rng)
    _out_of_range(doc, rng)
    parse_error = check_exit(EXIT_USAGE, "out of range")
    add("out_of_range.sfd", doc.text(), parse_error, parse_error)

    text, lost = _truncate(permuted(docs["conjecture_n76_k4"], rng), rng)
    add("truncated.sfd", text,
        check_verify(EXIT_INVALID, valid=False, missing=lost, duplicated=[], malformed=[], k_violations=[]),
        invalid)

    n = EMPTY_CLAIM_N
    add("empty_claim.sfd", f"decomposition v1\nn {n}\nk 4\n",
        check_verify(EXIT_INVALID, valid=False, forests=0, total_edges=n * (n - 1) // 2, covered_once=0,
                     missing_count=n * (n - 1) // 2),
        invalid)

    ops = []
    for name, path, verify_check, analyze_check in cases:
        ops.append(Op("verify", ["verify", "--json", "--in", str(path)], verify_check, instance=name))
        ops.append(Op("analyze", ["analyze", "--json", "--in", str(path)], analyze_check, instance=name))

    # hostile inputs: both must exit 2 with one line on stderr
    garbage = work / "undecodable.sfd"
    garbage.write_bytes(b"decomposition v1\nn 8\nk 2\nforest\nstar 0 : 1 \xff"
                        + bytes(rng.randrange(0x80, 0x100) for _ in range(64)))
    directory = work / "a_directory.sfd"
    directory.mkdir(exist_ok=True)
    for path, defect in ((garbage, UnicodeDecodeError), (directory, IsADirectoryError)):
        for command in ("verify", "analyze"):
            ops.append(Op(command, [command, "--json", "--in", str(path)], check_exit(EXIT_USAGE),
                          known_defect=defect, instance=path.stem))
    return ops


def build_ops(workload: str, work: Path, seed: int, starforest_construct, expected: dict) -> list[Op]:
    rng = random.Random(seed)
    if workload == "certify":
        return certify_ops(work, rng, starforest_construct, expected)
    if workload == "search":
        return search_ops(work, rng)
    return triage_ops(work, rng, starforest_construct)


WORKLOADS = ("certify", "search", "triage")
