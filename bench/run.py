"""Benchmark entry point.

    python3 bench/run.py --workload scan|lemmas|betti|modules --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(bench/worker.py), closed loop, one client, one op after another.  With
--trace 0 the last line of stdout carries the end-to-end metrics; set-up
time is the median of SETUP_REPEATS fresh interpreters, each timed here from
its start until it reports its inputs ready.  With --trace 1 it carries the
per-layer metrics of a traced pass.  The full record, with run metadata,
is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, kernel_median, reference_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 7
DEADLINE_S = 170  # for all workers of one run together

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "beh.scan.self_s": "s",
    "beh.scan.sequences": "count",
    "beh.pure_shape_check.calls": "count",
    "beh.scan.useful_ratio": "ratio",
    "beh.beh_check.self_s": "s",
    "pure.herzog_kuhl.calls": "count",
    "pure.herzog_kuhl.self_s": "s",
    "pure.herzog_kuhl.repeat_ratio": "ratio",
    "pure.log_gradient.calls": "count",
    "pure.log_gradient.self_s": "s",
    "pure.pure_total.calls": "count",
    "pure.pure_total.self_s": "s",
    "pure.verify.self_s": "s",
    "pure.verify.samples": "count",
    "decompose.decompose.self_s": "s",
    "decompose.greedy_steps": "count",
    "decompose.recompose.self_s": "s",
    "decompose.validate_bounds.self_s": "s",
    "diagram.arith.calls": "count",
    "diagram.arith.self_s": "s",
    "diagram.codimension.self_s": "s",
    "diagram.io.self_s": "s",
    "diagram.max_bits": "bits",
    "poly.vanishing_order.self_s": "s",
    "monomial.taylor_betti.calls": "count",
    "monomial.taylor_betti.self_s": "s",
    "monomial.rank.calls": "count",
    "monomial.rank.self_s": "s",
    "monomial.rank.entries": "count",
    "monomial.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline, extra=()):
    """Start a worker; return (set-up wall seconds, scaled set-up seconds,
    remaining stdout lines)."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    before = kernel_median()
    start = perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = perf_counter() - start
        after = kernel_median()
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.kill()
        process.wait()
        process.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker exited with code {code}")
    return setup_s, setup_s * NOMINAL_S / ((before + after) / 2), lines


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scan", "lemmas", "betti", "modules"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bettibounds" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    for _ in range(3):  # warm up the kernel
        reference_kernel()
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(start_worker(args, deadline, ["--setup-only"])[:2])
        *setup, lines = start_worker(args, deadline)
        setups.append(tuple(setup))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    failed, attempted = report["failed"], report["attempted"]
    if args.trace == 0:
        values = {
            "items_per_s": report["items_per_s"],
            "op_p50_ms": report["op_p50_ms"],
            "op_p90_ms": report["op_p90_ms"],
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        values = report["per_layer"]
        units = PER_LAYER_UNITS
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            metrics[name]["absent"] = True

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "fail_ratio": failed / attempted,
        **{k: v for k, v in report.items() if k != "per_layer"},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"meta": meta}))
    correct = report["wrong"] == 0 and report["raised"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
