"""Spans around starforest's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces the module attributes that callers resolve at call
time (``cli.validate_decomposition``, ``construct.validate_decomposition``,
``cli.parse`` ...) with timing wrappers, and ``uninstall`` puts the originals
back.  Spans stay in memory as ``[name, start, end, parent, op, attrs]`` and
are written out when the run ends.  The ``core`` layer has no call boundary
that can be timed without wrapping per-object constructors; its cost shows in
``construct.build_ms`` and ``fileio.parse_ms``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import defaultdict

from workloads import EXHAUSTIONS, MINIMISATIONS, search_instance

SEARCH_INSTANCES = [search_instance(n, k, m) for n, k, m in EXHAUSTIONS] + [
    search_instance(n, k) for n, k in MINIMISATIONS
]

# name -> unit of every metric a traced run reports
PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.argparse_ms": "ms",
    "cli.json_ms": "ms",
    "cli.write_ms": "ms",
    "construct.build_ms": "ms",
    "construct.validate_ms": "ms",
    "construct.raw_slots": "count",
    "construct.dup_slots": "count",
    "construct.dedup_keep_ratio": "ratio",
    "verify.validate_ms": "ms",
    "verify.validate_share": "ratio",
    "verify.validate_calls_per_op": "calls/op",
    "verify.edge_slots_per_s": "1/s",
    "verify.hypergraph_ms": "ms",
    "verify.bds_recognize_ms": "ms",
    "verify.missing_edges": "count",
    "fileio.parse_ms": "ms",
    "fileio.parse_mb_per_s": "MB/s",
    "fileio.serialize_ms": "ms",
    "fileio.export_dot_ms": "ms",
    "fileio.bytes_in": "bytes",
    "fileio.bytes_out": "bytes",
    "search.nodes": "count",
    **{f"search.nodes.{inst}": "count" for inst in SEARCH_INSTANCES},
    "search.nodes_per_s": "1/s",
    "search.exhaust_ms": "ms",
    "search.found_ms": "ms",
    "search.cert_validate_ms": "ms",
    "bounds.report_ms": "ms",
    "bounds.constructions_built": "count",
    "construct_ms_p50": "ms",
    "construct_ms_p90": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "analyze_ms_p50": "ms",
    "analyze_ms_p90": "ms",
    "export_ms_p50": "ms",
    "bounds_ms_p50": "ms",
    "search_ms_p50": "ms",
    "search_ms_p90": "ms",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
}

# counts that must repeat exactly between passes and between runs
EXACT_COUNTS = ["construct.dup_slots", "verify.validate_calls_per_op"] + [
    f"search.nodes.{inst}" for inst in SEARCH_INSTANCES
]

_BUILDERS = ("k27", "k16", "k4_construction", "f3_construction", "f2_construction",
             "broken_double_star", "conjecture_construction", "blowup")
_HYPERGRAPH = ("root_hypergraph", "degree_profile", "check_no_isolated",
               "check_counting_inequality", "check_degree1_placement")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: tuple[int, int] | None = None  # (pass, op index) of the running op
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs: dict | None = None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, dict(attrs or {})]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span[5], args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attrs: dict | None = None, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs, after))

    def install(self, cli, construct, verify, search, bounds) -> None:
        def argparse_after(_attrs, _args, parser):
            parser.parse_args = self.wrap("cli.argparse", parser.parse_args)

        def validate_after(attrs, args, report):
            attrs["slots"] = args[0].total_edge_slots()
            attrs["missing"] = len(report.coverage.missing)

        def build_after(attrs, _args, out):
            attrs["raw"] = sum(out.raw_edge_slots)
            attrs["kept"] = out.decomposition.total_edge_slots()

        def bytes_in(attrs, args, _result):
            attrs["bytes"] = len(args[0])

        def bytes_out(attrs, _args, text):
            attrs["bytes"] = len(text)

        def search_after(attrs, _args, res):
            attrs["status"] = res.status.value
            attrs["nodes"] = res.nodes_explored

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "build_parser", "cli.argparse", after=argparse_after)
        self._patches.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(dumps=self.wrap("cli.json", cli.json.dumps))
        self._patch(cli, "_write_atomic", "cli.write")
        self._patch(cli, "parse", "fileio.parse", after=bytes_in)
        self._patch(cli, "serialize", "fileio.serialize", after=bytes_out)
        self._patch(cli, "export_dot", "fileio.export_dot", after=bytes_out)
        for owner, caller in ((cli, "cli"), (verify, "verify"), (construct, "construct"), (search, "search")):
            self._patch(owner, "validate_decomposition", "verify.validate", {"caller": caller}, validate_after)
        for name in _BUILDERS:
            self._patch(cli, name, "construct.build", {"caller": "cli"}, build_after)
        for name in ("f2_construction", "conjecture_construction", "f3_construction", "k4_construction"):
            self._patch(bounds, name, "construct.build", {"caller": "bounds"}, build_after)
        for name in _HYPERGRAPH:
            self._patch(cli, name, "verify.hypergraph")
        self._patch(cli, "is_broken_double_star", "verify.bds_recognize")
        for owner in (cli, search):
            self._patch(owner, "exists_decomposition", "search.exists", after=search_after)
        self._patch(cli, "f_exact", "search.f_exact")
        self._patch(cli, "bound_report", "bounds.report")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Everything runs on one thread, so children never overlap and their
    durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def quantile(values: list[float], q: float) -> float:
    """Inclusive-interpolated quantile; the median for q = 0.5."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def op_latency(samples_by_op: dict[int, list[float]], ops, command: str | None, q: float) -> float:
    """Quantile over the ops of one command (all ops for None), each op taken
    at its median over passes, in ms; 0 when the workload has no such op."""
    medians = [statistics.median(s) * 1e3 for j, s in samples_by_op.items()
               if command is None or ops[j].command == command]
    return quantile(medians, q) if medians else 0.0


def pass_layer_metrics(all_spans: list[list], all_selfs: list[float], index: int, ops,
                       scales: list[float]) -> dict[str, float]:
    """Per-layer metrics of traced pass ``index``, from the spans of every pass
    and their self times; ``scales[j]`` turns op j's seconds into reference seconds."""
    picked = [(s, t) for s, t in zip(all_spans, all_selfs) if s[4][0] == index]
    spans = [s for s, _ in picked]
    selfs = [t * scales[s[4][1]] for s, t in picked]
    ms: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    nodes: dict[str, float] = defaultdict(float)
    checked_ops = {j for (_, j) in (s[4] for s in spans) if ops[j].command in ("verify", "analyze")}
    validate_calls = 0
    for (name, start, end, parent, op, attrs), self_s in zip(spans, selfs):
        dur = (end - start) * scales[op[1]] * 1e3
        ms[name] += self_s * 1e3
        if name == "verify.validate":
            ms[f"validate.{attrs['caller']}"] += dur
            count["slots"] += attrs.get("slots", 0)
            count["missing"] += attrs.get("missing", 0)
            validate_calls += ops[op[1]].command in ("verify", "analyze")
        elif name == "construct.build":
            count["raw"] += attrs.get("raw", 0)
            count["kept"] += attrs.get("kept", 0)
            count["bounds_builds"] += attrs["caller"] == "bounds"
        elif name in ("fileio.parse", "fileio.serialize", "fileio.export_dot"):
            count["in" if name == "fileio.parse" else "out"] += attrs.get("bytes", 0)
        elif name == "search.exists":
            ms[attrs.get("status", "raised")] += dur
            nodes[ops[op[1]].instance] += attrs.get("nodes", 0)
    validate_ms = ms["verify.validate"]
    exists_s = (ms["exhausted-not-found"] + ms["found"] + ms["budget-exceeded"]) / 1e3
    total_nodes = sum(nodes.values())
    pass_ms = sum((end - start) * scales[op[1]] for _, start, end, parent, op, _ in spans if parent is None) * 1e3
    return {
        "cli.self_ms": ms["cli.main"],
        "cli.argparse_ms": ms["cli.argparse"],
        "cli.json_ms": ms["cli.json"],
        "cli.write_ms": ms["cli.write"],
        "construct.build_ms": ms["construct.build"],
        "construct.validate_ms": ms["validate.construct"],
        "construct.raw_slots": count["raw"],
        "construct.dup_slots": count["raw"] - count["kept"],
        "construct.dedup_keep_ratio": count["kept"] / count["raw"] if count["raw"] else 0.0,
        "verify.validate_ms": validate_ms,
        "verify.validate_share": validate_ms / pass_ms if pass_ms else 0.0,
        "verify.validate_calls_per_op": validate_calls / len(checked_ops) if checked_ops else 0.0,
        "verify.edge_slots_per_s": count["slots"] / (validate_ms / 1e3) if validate_ms else 0.0,
        "verify.hypergraph_ms": ms["verify.hypergraph"],
        "verify.bds_recognize_ms": ms["verify.bds_recognize"],
        "verify.missing_edges": count["missing"],
        "fileio.parse_ms": ms["fileio.parse"],
        "fileio.parse_mb_per_s": count["in"] / 1e6 / (ms["fileio.parse"] / 1e3) if ms["fileio.parse"] else 0.0,
        "fileio.serialize_ms": ms["fileio.serialize"],
        "fileio.export_dot_ms": ms["fileio.export_dot"],
        "fileio.bytes_in": count["in"],
        "fileio.bytes_out": count["out"],
        "search.nodes": total_nodes,
        **{f"search.nodes.{inst}": nodes[inst] for inst in SEARCH_INSTANCES},
        "search.nodes_per_s": total_nodes / exists_s if exists_s else 0.0,
        "search.exhaust_ms": ms["exhausted-not-found"],
        "search.found_ms": ms["found"],
        "search.cert_validate_ms": ms["validate.search"],
        "bounds.report_ms": ms["bounds.report"],
        "bounds.constructions_built": count["bounds_builds"],
    }
