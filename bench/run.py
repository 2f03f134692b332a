#!/usr/bin/env python3
"""Benchmark of the starforest CLI: one workload per run, one process, one thread.

    python3 bench/run.py --workload certify|search|triage --seed N --seconds S --trace 0|1

Each op is one command line passed to ``starforest.cli.main`` in this
process with stdout and stderr captured, so import cost lands in ``setup_s``
and not in every op.  A pass runs every op of the workload once; passes
repeat until ``--seconds`` have gone by (at least one).  Every output is
checked (see workloads.py).

Times are reported in reference seconds.  On a shared machine the speed at
which Python runs drifts by tens of percent over minutes, which would swamp
any change worth detecting.  So a fixed calibration loop runs before every op
(outside the op's timing).  Each op time is scaled by KERNEL_REFERENCE_S over
the median loop time of the nine loops nearest it in its pass, and each
set-up by the loops run around it.  Raw times and scales are kept in the
result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and reports the per-layer metrics of
tracing.py; its spans are written next to the result file.  The last line of
stdout is the JSON result; a stamped result file goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import EXACT_COUNTS, PER_LAYER, Tracer, op_latency, pass_layer_metrics, self_times
from workloads import WORKLOADS, Outcome, build_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
# set-up repeats: at least SETUP_MIN_REPEATS, more while they take under SETUP_BUDGET_S
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 5, 25, 2.0
# calibration_kernel's time on a 2-core Xeon VM with Python 3.11 in its faster spells
KERNEL_REFERENCE_S = 0.010
# calibration loops around an op whose median scales that op
KERNEL_WINDOW = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# per-layer latency metric -> (command, quantile)
COMMAND_LATENCY = {
    "construct_ms_p50": ("construct", 0.5),
    "construct_ms_p90": ("construct", 0.9),
    "verify_ms_p50": ("verify", 0.5),
    "verify_ms_p90": ("verify", 0.9),
    "analyze_ms_p50": ("analyze", 0.5),
    "analyze_ms_p90": ("analyze", 0.9),
    "export_ms_p50": ("export", 0.5),
    "bounds_ms_p50": ("bounds", 0.5),
    "search_ms_p50": ("search", 0.5),
    "search_ms_p90": ("search", 0.9),
}


def load_program():
    """Import starforest from this checkout's src/ and nowhere else."""
    if not (SRC / "starforest" / "cli.py").is_file():
        sys.exit(f"error: no starforest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from starforest import bounds, cli, construct, search, verify

    if Path(cli.__file__).resolve().parent != SRC / "starforest":
        sys.exit(f"error: starforest imported from {cli.__file__}, not {SRC}")
    return cli, construct, verify, search, bounds


def time_import() -> float:
    """Import time of the CLI in a fresh interpreter, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import starforest.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-s", "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def calibration_kernel() -> float:
    """Time a fixed pure-Python loop: how fast this machine runs Python right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_scale(kernel_samples: list[float]) -> float:
    return KERNEL_REFERENCE_S / statistics.median(kernel_samples)


@dataclass
class Pass:
    times: list[float]  # raw wall seconds per op
    statuses: list[str]
    scales: list[float]  # reference seconds per raw second, per op

    @property
    def seconds(self) -> float:
        return sum(t * s for t, s in zip(self.times, self.scales))


def run_op(cli, op) -> tuple[float, str]:
    """Run one op; return its wall time and status ('ok', 'known-defect' or 'failed: ...')."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as raised:  # the op failed; record why and go on
            exc = raised
        elapsed = time.perf_counter() - t0
    if exc is not None:
        if type(exc) is op.known_defect:
            return elapsed, "known-defect"
        return elapsed, f"failed: raised {type(exc).__name__}: {exc}"
    reason = op.check(Outcome(code, out.getvalue(), err.getvalue()))
    return elapsed, "ok" if reason is None else f"failed: {reason}"


def run_pass(cli, ops, tracer: Tracer | None, index: int) -> Pass:
    gc.collect()
    times, statuses, kernel = [], [], []
    for j, op in enumerate(ops):
        kernel.append(calibration_kernel())
        if tracer is not None:
            tracer.op = (index, j)
        elapsed, status = run_op(cli, op)
        times.append(elapsed)
        statuses.append(status)
    lo = [min(max(j - KERNEL_WINDOW // 2, 0), max(len(kernel) - KERNEL_WINDOW, 0)) for j in range(len(kernel))]
    return Pass(times, statuses, [speed_scale(kernel[i:i + KERNEL_WINDOW]) for i in lo])


def inputs_digest(work: Path, ops) -> str:
    """Digest of the generated files and of the op sequence (search seeds only the order)."""
    h = hashlib.sha256(json.dumps([[a.replace(str(work), "") for a in op.argv] for op in ops]).encode())
    for path in sorted(work.rglob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # never look above the checkout
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli, construct, verify, search, bounds = load_program()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    work = WORK / f"run-{args.workload}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: a fresh import plus input generation, repeated for a median
        time_import()  # untimed: compiles bytecode on a first run in a checkout
        setup_raw: list[float] = []
        setup_samples: list[float] = []
        while len(setup_raw) < SETUP_MIN_REPEATS or (
                sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < SETUP_MAX_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            kernel = [calibration_kernel() for _ in range(3)]
            import_s = time_import()
            t0 = time.perf_counter()
            ops = build_ops(args.workload, work, args.seed, construct, expected)
            setup_raw.append(import_s + time.perf_counter() - t0)
            kernel += [calibration_kernel() for _ in range(3)]
            setup_samples.append(setup_raw[-1] * speed_scale(kernel))
        digest = inputs_digest(work, ops)

        start = time.perf_counter()
        passes: list[Pass] = []
        traced: list[Pass] = []
        tracer = Tracer() if args.trace else None

        def time_left(done: list) -> bool:
            """Start another pass only if it would end near --seconds, not a whole pass past it."""
            elapsed = time.perf_counter() - start
            last = sum(done[-1].times) if done else 0.0
            return elapsed + last / 2 < args.seconds

        passes.append(run_pass(cli, ops, None, 0))
        while not args.trace and time_left(passes):
            passes.append(run_pass(cli, ops, None, len(passes)))
        if tracer is not None:
            tracer.install(cli, construct, verify, search, bounds)
            try:
                while not traced or time_left(traced):
                    traced.append(run_pass(cli, ops, tracer, len(passes) + len(traced)))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [status for p in passes + traced for status in p.statuses]
    attempted = len(every)
    failed = sum(status.startswith("failed") for status in every)
    defects = every.count("known-defect")
    problems = sorted({f"{ops[j].command} {ops[j].instance}: {status}"
                       for p in passes + traced for j, status in enumerate(p.statuses) if status.startswith("failed")})

    def samples(runs: list[Pass]) -> dict[int, list[float]]:
        """Reference seconds of each op, one sample per pass."""
        return {j: [p.times[j] * p.scales[j] for p in runs] for j in range(len(ops))}

    def pass_s(runs: list[Pass]) -> float:
        return statistics.median(p.seconds for p in runs)

    if not args.trace:
        by_op = samples(passes)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": pass_s(passes),
            "op_ms_p50": op_latency(by_op, ops, None, 0.5),
            "op_ms_p90": op_latency(by_op, ops, None, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        selfs = self_times(tracer.spans)  # span parents index the whole list
        per_pass = [pass_layer_metrics(tracer.spans, selfs, len(passes) + i, ops, p.scales)
                    for i, p in enumerate(traced)]
        for name in EXACT_COUNTS:
            if len({round(m[name], 9) for m in per_pass}) > 1:
                problems.append(f"{name} differs between passes: {[m[name] for m in per_pass]}")
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        by_op = samples(traced)
        for name, (command, q) in COMMAND_LATENCY.items():
            metrics[name] = op_latency(by_op, ops, command, q)
        metrics["error_rate"] = (failed + defects) / attempted
        metrics["trace.overhead_ratio"] = pass_s(traced) / pass_s(passes)
        units = PER_LAYER
        tracer.write(results_dir / f"{args.workload}-seed{args.seed}-trace1.spans.jsonl")

    correct = failed == 0 and not problems
    record = {
        "stamp": stamp(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "ops_per_pass": len(ops),
        "untraced_passes": len(passes),
        "traced_passes": len(traced),
        "setup_s_samples": setup_samples,
        "setup_raw_s": setup_raw,
        "pass_scales": [statistics.median(p.scales) for p in passes + traced],
        "pass_raw_s": [sum(p.times) for p in passes + traced],
        "ops": [
            {"command": op.command, "instance": op.instance,
             "ms": [p.times[j] * p.scales[j] * 1e3 for p in passes + traced],
             "raw_ms": [p.times[j] * 1e3 for p in passes + traced],
             "status": sorted({p.statuses[j] for p in passes + traced})}
            for j, op in enumerate(ops)
        ],
        "exact_counts": {name: metrics[name] for name in EXACT_COUNTS if name in metrics},
        "problems": problems,
        "known_defect_ops": defects,
        "metrics": metrics,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if defects:
        print(f"{defects} of {attempted} ops hit a known defect (hostile input raises instead of exit 2)",
              file=sys.stderr)
    runs = len(traced) if args.trace else len(passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {runs} passes x {len(ops)} ops, "
          f"{attempted} ops attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
