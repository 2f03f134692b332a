#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal length (mostly one pass per run).

    python3 bench/smoke.py

For every workload it runs seeds 1 and 2, untraced and traced, and checks:
every metric listed in BENCHMARK.json is emitted with its unit and no other;
every end-to-end metric is positive; the result file is stamped; the two
seeds give different inputs but the same op count and the same exact counts.
Traced search runs last long enough for several traced passes, so the
per-pass split of the spans and the between-pass check of exact counts run.
It also checks that the benchmark fails, printing no result, in a copy that
holds only BENCHMARK.json and bench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


# seconds per run where one pass is not enough: search passes take ~2 s traced
SECONDS = {("search", 1): 8}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS.get((workload, trace), 1)), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED {what}")


def result_of(done: subprocess.CompletedProcess, what: str) -> dict:
    check(done.returncode == 0, f"{what} exit {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{what} result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{what} not correct: {done.stderr[-500:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what} attempted")
    return result


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        records = {}
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for seed in (1, 2):
                what = f"{workload} seed={seed} trace={trace}"
                metrics = result_of(run(workload, seed, trace), what)["metrics"]
                want = {m["name"]: m["unit"] for m in listed}
                check({k: v["unit"] for k, v in metrics.items()} == want, f"{what} metric names/units")
                if trace == 0:
                    check(all(v["value"] > 0 for v in metrics.values()), f"{what} end-to-end metric is 0")
                path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
                record = json.loads(path.read_text(encoding="utf-8"))
                check(set(record["stamp"]) >= {"commit", "python", "nproc", "cpu_model"}, f"{what} stamp")
                if (workload, trace) in SECONDS:
                    check(record["traced_passes"] >= 2, f"{what}: {record['traced_passes']} traced passes, want 2+")
                records[seed, trace] = record
            a, b = records[1, trace], records[2, trace]
            check(a["inputs_sha256"] != b["inputs_sha256"], f"{workload} trace={trace}: seeds gave the same inputs")
            check(a["ops_per_pass"] == b["ops_per_pass"], f"{workload} trace={trace}: op counts differ")
            check(a["exact_counts"] == b["exact_counts"], f"{workload}: exact counts differ between runs")
        print(f"smoke: {workload} ok")

    bare = ROOT / ".bench_work" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        check(done.returncode != 0 and '"correct"' not in done.stdout, "benchmark ran without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare copy fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
