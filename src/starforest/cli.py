"""Command-line surface: construct | verify | analyze | search | bounds | export.

Exit codes: 0 success (verify: valid), 1 invalid decomposition, 2 usage,
parse, unreadable-input or out-of-memory errors, 3 search budget exceeded.
Output is byte-deterministic for a fixed argv and input file; file writes go
through a write-then-rename of a uniquely named temporary file beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .bounds import bound_report
# cmd_construct looks each builder up by name in this module's globals, so a
# builder patched here (as the benchmark's tracer does) is the one that runs
from .construct import (
    FAMILIES,
    blowup,
    broken_double_star,
    conjecture_construction,
    f2_construction,
    f3_construction,
    k16,
    k27,
    k4_construction,
)
from .core import DecompositionError, NotApplicableError
from .fileio import DecompositionFile, export_dot, export_dot_per_forest, parse, serialize
from .search import SearchBudget, SearchStatus, exists_decomposition, f_exact
from .verify import (
    MissingEdges,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    degree_profile,
    is_broken_double_star,
    root_hypergraph,
    validate_decomposition,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file beside ``path``, then rename it over.

    The temporary name is unique per call, so concurrent writers never share
    it; a failed write removes it, and the error names ``path`` itself.
    ``open(..., "x")`` instead of ``tempfile.mkstemp`` keeps the umask-based
    mode a plain ``open`` gives; mkstemp's 0600 would carry over to ``path``.
    """
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _load(path: str | None) -> DecompositionFile:
    return parse(sys.stdin.read() if path is None or path == "-" else Path(path).read_text(encoding="utf-8"))


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.max_nodes, wall_time=args.timeout)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    fam = FAMILIES[args.family]
    for flag in fam.flags:
        if flag != "in" and getattr(args, flag) is None:
            raise DecompositionError(f"--{flag} is required for the {args.family} family")
    argv = [_load(args.infile) if flag == "in" else getattr(args, flag) for flag in fam.flags]
    _emit(serialize(globals()[fam.builder](*argv)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    f = _load(args.infile)
    report = validate_decomposition(f.decomposition)
    missing = report.coverage.missing
    if args.json:
        payload = {
            "valid": report.ok,
            "n": f.decomposition.n,
            "k": f.decomposition.k,
            "forests": f.decomposition.forest_count,
            "total_edges": report.coverage.total_edges,
            "covered_once": report.coverage.total_edges - missing.size,
            "missing": [],
            "duplicated": report.coverage.duplicated,
            "malformed": list(report.malformed),
            "k_violations": list(report.k_violations),
        }
        # JSON escapes every quote inside a string, so this key is the only match
        head, _, tail = json.dumps(payload, sort_keys=True).partition('"missing": []')
        names = [str(v) for v in range(missing.n)]  # before any output: a MemoryError leaves stdout empty
        sys.stdout.write(head + '"missing": [')
        _write_missing_rows(missing, names)
        sys.stdout.write("]" + tail + "\n")
    else:
        print(f"valid: {'yes' if report.ok else 'no'}")
        print(
            f"n={f.decomposition.n} k={f.decomposition.k} "
            f"forests={f.decomposition.forest_count} edges={report.coverage.total_edges}"
        )
        _print_edge_list("missing", missing.size, list(islice(missing, 20)))
        duplicated = report.coverage.duplicated
        _print_edge_list("duplicated", len(duplicated), [e for e, _ in duplicated[:20]])
        for msg in report.malformed[:20]:
            print(f"malformed: {msg}")
        for fi in report.k_violations[:20]:
            print(f"forest {fi} exceeds the component bound")
    return EXIT_OK if report.ok else EXIT_INVALID


def _write_missing_rows(missing: MissingEdges, names: list[str]) -> None:
    """Write the body of ``json.dumps(list(missing))`` one row at a time.

    Row u's edges are one join over ``names`` (``names[v] == str(v)``), so no
    int is converted per edge; a row with no covered edge (a ``range``) joins
    a slice of that table, which also skips the per-edge lookup.
    """
    sep = ""
    for u, vs in missing.rows():
        cells = names[vs.start:] if isinstance(vs, range) else map(names.__getitem__, vs)
        sys.stdout.write(f"{sep}[{names[u]}, " + f"], [{names[u]}, ".join(cells) + "]")
        sep = ", "


def _print_edge_list(tag: str, count: int, shown: list | tuple) -> None:
    """``shown`` holds the first 20 of ``count`` edges."""
    text = " ".join(f"{u}-{v}" for u, v in shown)
    suffix = " ..." if count > 20 else ""
    print(f"{tag} ({count}):" + (f" {text}{suffix}" if count else " -"))


def cmd_analyze(args) -> int:
    f = _load(args.infile)
    d = f.decomposition
    report = validate_decomposition(d)
    rh = root_hypergraph(d)
    prof = degree_profile(rh)
    iso = check_no_isolated(rh)

    payload: dict = {
        "valid": report.ok,
        "hyperedges": [sorted(e) for e in rh.hyperedges],
        "degree_profile": {
            "m": prof.m,
            "r": prof.r,
            "p": {str(j): c for j, c in prof.p.items()},
            "isolated": prof.isolated,
            "degree_sum": prof.degree_sum,
        },
        "no_isolated": {"applicable": iso.applicable, "isolated": list(iso.isolated), "ok": iso.ok},
    }
    try:
        count_report = check_counting_inequality(rh)
        payload["counting"] = {
            "lhs": count_report.lhs,
            "rhs": count_report.rhs,
            "slack": count_report.slack,
            "aggregate_applicable": True,  # check_counting_inequality raised otherwise
            "aggregate_slack": count_report.counting_slack,
            "ok": count_report.ok,
        }
    except NotApplicableError as exc:
        payload["counting"] = {"not_applicable": str(exc)}
    try:
        placement = check_degree1_placement(d, report=report)
        payload["degree1_placement"] = {
            "ok": placement.ok,
            "shared_degree1": [[fi, list(vs)] for fi, vs in placement.shared_degree1],
            "pinched_degree2": [list(x) for x in placement.pinched_degree2],
        }
    except (NotApplicableError, DecompositionError) as exc:
        payload["degree1_placement"] = {"not_applicable": str(exc)}
    try:
        payload["broken_double_star"] = is_broken_double_star(d, report=report)
    except NotApplicableError as exc:
        payload["broken_double_star"] = f"not applicable: {exc}"

    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    print(f"valid: {'yes' if report.ok else 'no'}")
    for fi, e in enumerate(rh.hyperedges):
        label = (f.provenance[fi] if f.provenance else None) or f"forest {fi}"
        members = ", ".join(d.labels.label(v) if d.labels else str(v) for v in sorted(e))
        print(f"hyperedge {fi} [{label}]: {{{members}}}")
    pstr = " ".join(f"{j}->{c}" for j, c in prof.p.items())
    print(f"degree profile: m={prof.m} r={prof.r} degree_sum={prof.degree_sum} "
          f"isolated={prof.isolated} p: {pstr}")
    print(f"no isolated vertex: {'ok' if iso.ok else 'VIOLATED'}"
          + ("" if iso.applicable else " (not forced: m >= n-1)"))
    cnt = payload["counting"]
    if "not_applicable" in cnt:
        print(f"counting inequality: not applicable ({cnt['not_applicable']})")
    else:
        print(f"counting inequality: slack={cnt['slack']} aggregate_slack={cnt['aggregate_slack']} "
              f"{'ok' if cnt['ok'] else 'VIOLATED'}")
    placement = payload["degree1_placement"]
    if "not_applicable" in placement:
        print(f"degree-1 placement: not applicable ({placement['not_applicable']})")
    else:
        print(f"degree-1 placement: {'ok' if placement['ok'] else 'VIOLATED'}")
    print(f"broken double star: {payload['broken_double_star']}")
    return EXIT_OK


def cmd_search(args) -> int:
    budget = _budget(args)
    if args.max_forests is not None:
        res = exists_decomposition(args.n, args.k, args.max_forests, budget)
        payload = {"status": res.status.value, "nodes": res.nodes_explored}
        text = f"status: {res.status.value} (nodes={res.nodes_explored})"
    else:
        res = f_exact(args.n, args.k, budget)
        payload = {
            "status": res.status.value,
            "value": res.value,
            "interval": list(res.interval),
            "lower_bound": res.lower_bound,
            "nodes": res.nodes_explored,
        }
        if res.status is SearchStatus.FOUND:
            text = f"F_{args.k}({args.n}) = {res.value} (nodes={res.nodes_explored})"
        else:
            text = (f"F_{args.k}({args.n}) in [{res.interval[0]}, {res.interval[1]}] "
                    f"(budget exceeded, nodes={res.nodes_explored})")
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    if res.certificate is not None and args.cert:
        _write_atomic(args.cert, serialize(DecompositionFile(res.certificate, family="search")))
    return EXIT_BUDGET if res.status is SearchStatus.BUDGET_EXCEEDED else EXIT_OK


def cmd_bounds(args) -> int:
    budget = _budget(args) if args.with_search else None
    report = bound_report(args.n, args.k, use_search=args.with_search, budget=budget)
    if args.json:
        print(json.dumps(
            {
                "n": report.n,
                "k": report.k,
                "lower": report.lower,
                "lower_source": report.lower_source,
                "upper": report.upper,
                "upper_source": report.upper_source,
                "conjecture": report.conjecture_value,
                "refuted": report.conjecture_refuted_here,
            },
            sort_keys=True,
        ))
    else:
        upper = f"{report.upper}[{report.upper_source}]" if report.upper is not None else "-"
        verdict = "REFUTED" if report.conjecture_refuted_here else "not refuted here"
        print(
            f"n={report.n} k={report.k} lower={report.lower}[{report.lower_source}] "
            f"upper={upper} conjecture={report.conjecture_value} {verdict}"
        )
    return EXIT_OK


def cmd_export(args) -> int:
    f = _load(args.infile)
    if args.format == "dot":
        _emit(export_dot(f.decomposition), args.out)
    else:
        if args.out_dir is None:
            raise DecompositionError("--out-dir is required for dot-per-forest")
        outdir = Path(args.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for fi, text in enumerate(export_dot_per_forest(f.decomposition)):
            _write_atomic(str(outdir / f"forest_{fi:03d}.dot"), text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starforest",
        description="Construct, verify, analyze and search k-star-forest decompositions of complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a decomposition from a named family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--in", dest="infile", help="base decomposition file (blowup)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check that a file is a valid decomposition")
    p.add_argument("--in", dest="infile", default=None, help="input file (default: stdin)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="root-hypergraph diagnostics for a decomposition file")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="exhaustive minimum-forest-count oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-forests", type=int, default=None,
                   help="decide existence for this forest budget instead of minimizing")
    p.add_argument("--max-nodes", type=int, default=50_000_000)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--cert", help="write the found certificate here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="lower/upper bound report against the conjectured value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--with-search", action="store_true")
    p.add_argument("--max-nodes", type=int, default=5_000_000)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export", help="render a decomposition file as DOT")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--format", required=True, choices=["dot", "dot-per-forest"])
    p.add_argument("--out", help="output path for single-graph formats (default: stdout)")
    p.add_argument("--out-dir", help="output directory for per-forest formats")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DecompositionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
