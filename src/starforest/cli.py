"""Command-line surface: construct | verify | analyze | search | bounds | export.

Exit codes: 0 success (verify: valid), 1 invalid decomposition, 2 usage,
parse, unreadable-input or out-of-memory errors, 3 search budget exceeded.
Output is byte-deterministic for a fixed argv and input file; file writes go
through a write-then-rename of a uniquely named temporary file beside it.

``main`` reads an argv of exact flags and their values straight from
``_COMMANDS``, with each row's type, choices and required checks.  Any other
argv (help and every usage error) goes to the full argparse tree, imported
and built only then.  No parser outlives a call, so patches on one never pile
up.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

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


def _report_or_reason(reason: type[Exception], check, *args):
    """``check(*args)``, or the ``reason`` it raised for not applying."""
    try:
        return check(*args)
    except reason as exc:
        return exc


def cmd_analyze(args) -> int:
    f = _load(args.infile)
    d = f.decomposition
    report = validate_decomposition(d)
    rh = root_hypergraph(d)
    prof = degree_profile(rh)
    iso = check_no_isolated(rh)
    counting = _report_or_reason(NotApplicableError, check_counting_inequality, rh, prof)
    placement = _report_or_reason(DecompositionError, check_degree1_placement, rh, report)
    bds = _report_or_reason(NotApplicableError, is_broken_double_star, d, report)
    if isinstance(bds, NotApplicableError):
        bds = f"not applicable: {bds}"

    if args.json:
        payload = {
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
            "counting": {"not_applicable": str(counting)} if isinstance(counting, Exception) else {
                "lhs": counting.lhs,
                "rhs": counting.rhs,
                "slack": counting.slack,
                "aggregate_applicable": True,  # check_counting_inequality raised otherwise
                "aggregate_slack": counting.counting_slack,
                "ok": counting.ok,
            },
            "degree1_placement": {"not_applicable": str(placement)} if isinstance(placement, Exception) else {
                "ok": placement.ok,
                "shared_degree1": [[fi, list(vs)] for fi, vs in placement.shared_degree1],
                "pinched_degree2": [list(x) for x in placement.pinched_degree2],
            },
            "broken_double_star": bds,
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    print(f"valid: {'yes' if report.ok else 'no'}")
    for fi, e in enumerate(rh.hyperedges):
        label = f.provenance[fi] or f"forest {fi}"
        members = ", ".join(map(d.label, sorted(e)))
        print(f"hyperedge {fi} [{label}]: {{{members}}}")
    pstr = " ".join(f"{j}->{c}" for j, c in prof.p.items())
    print(f"degree profile: m={prof.m} r={prof.r} degree_sum={prof.degree_sum} "
          f"isolated={prof.isolated} p: {pstr}")
    print(f"no isolated vertex: {'ok' if iso.ok else 'VIOLATED'}"
          + ("" if iso.applicable else " (not forced: m >= n-1)"))
    if isinstance(counting, Exception):
        print(f"counting inequality: not applicable ({counting})")
    else:
        print(f"counting inequality: slack={counting.slack} aggregate_slack={counting.counting_slack} "
              f"{'ok' if counting.ok else 'VIOLATED'}")
    if isinstance(placement, Exception):
        print(f"degree-1 placement: not applicable ({placement})")
    else:
        print(f"degree-1 placement: {'ok' if placement.ok else 'VIOLATED'}")
    print(f"broken double star: {bds}")
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
    if res.certificate is not None and args.cert:  # before any output: a failed write leaves stdout empty
        _write_atomic(args.cert, serialize(DecompositionFile(res.certificate, family="search")))
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    return EXIT_BUDGET if res.status is SearchStatus.BUDGET_EXCEEDED else EXIT_OK


def cmd_bounds(args) -> int:
    report = bound_report(args.n, args.k, _budget(args) if args.with_search else None)
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


# subcommand -> (its line in the top-level help, handler, ((flag, add_argument keywords), ...));
# _read implements only the keywords dest, default, type, choices, required, help and action="store_true"
_COMMANDS = {
    "construct": ("emit a decomposition from a named family", cmd_construct, (
        ("--family", dict(required=True, choices=list(FAMILIES))),
        ("--n", dict(type=int)),
        ("--k", dict(type=int)),
        ("--m", dict(type=int)),
        ("--t", dict(type=int)),
        ("--in", dict(dest="infile", help="base decomposition file (blowup)")),
        ("--out", dict(help="output path (default: stdout)")),
    )),
    "verify": ("check that a file is a valid decomposition", cmd_verify, (
        ("--in", dict(dest="infile", help="input file (default: stdin)")),
        ("--json", dict(action="store_true")),
    )),
    "analyze": ("root-hypergraph diagnostics for a decomposition file", cmd_analyze, (
        ("--in", dict(dest="infile")),
        ("--json", dict(action="store_true")),
    )),
    "search": ("exhaustive minimum-forest-count oracle", cmd_search, (
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--max-forests", dict(type=int, help="decide existence for this forest budget instead of minimizing")),
        ("--max-nodes", dict(type=int, default=SearchBudget().max_nodes)),
        ("--timeout", dict(type=float, default=SearchBudget().wall_time)),
        ("--cert", dict(help="write the found certificate here")),
        ("--json", dict(action="store_true")),
    )),
    "bounds": ("lower/upper bound report against the conjectured value", cmd_bounds, (
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--with-search", dict(action="store_true")),
        ("--max-nodes", dict(type=int, default=5_000_000)),
        ("--timeout", dict(type=float, default=60.0)),
        ("--json", dict(action="store_true")),
    )),
    "export": ("render a decomposition file as DOT", cmd_export, (
        ("--in", dict(dest="infile")),
        ("--format", dict(required=True, choices=["dot", "dot-per-forest"])),
        ("--out", dict(help="output path for single-graph formats (default: stdout)")),
        ("--out-dir", dict(help="output directory for per-forest formats")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree, one subparser per ``_COMMANDS`` row; ``main`` builds it only for argv ``_read`` declines."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="starforest",
        description="Construct, verify, analyze and search k-star-forest decompositions of complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=line)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The full tree's namespace for an argv of exact flags and their values, keys in its order; else None."""
    try:
        _, func, arguments = _COMMANDS[argv[0]]
        kwargs, given, tokens = dict(arguments), {}, iter(argv[1:])
        for flag in tokens:
            kw = kwargs[flag]
            if kw.get("action") == "store_true":
                given[flag] = True
                continue
            value = next(tokens)
            given[flag] = typed = kw.get("type", str)(value)
            # argparse may read a token that starts with "-" as a flag or a negative number
            if value.startswith("-") or typed not in kw.get("choices", [typed]):
                return None
    except (IndexError, KeyError, StopIteration, TypeError, ValueError):  # no command, no flag, no value, bad type
        return None
    if any(kw.get("required") and flag not in given for flag, kw in arguments):
        return None
    return SimpleNamespace(command=argv[0], **{
        kw.get("dest", flag[2:].replace("-", "_")): given.get(flag, kw.get("default", False if kw.get("action") else None))
        for flag, kw in arguments}, func=func)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)  # argparse words help and every usage error
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
