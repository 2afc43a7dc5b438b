"""One benchmark process: set up a workload, run it, check every op.

Started by run.py in a fresh interpreter.  It imports the library from the
checkout's `src/`, generates and writes the seeded inputs, then prints
`ready` on stdout, which is where set-up time ends.  With --setup-only it
stops there.  Otherwise it runs the ops one after another in this process
through `bettibounds.cli.main`, checks them, and prints one JSON object as
its last line of stdout.

--trace 0 repeats whole passes until --seconds have elapsed and at least
MIN_OPS ops have run.  --trace 1 runs one pass to warm up, the pass again
untraced and then traced, and reports per-layer numbers from the traced pass; the pass is
fixed per seed, so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bettibounds.cli  # noqa: E402

from speed import NOMINAL_S, SpeedLog  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bettibounds.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_pass(ops, speed, tracer=None, first_runs=None):
    """[(op index, start, wall seconds, scaled seconds, runs, exception text or None)].

    Outputs equal to the ones an op gave before (first_runs) are replaced by
    those, so memory holds one pass of outputs however many passes run.
    """
    first_runs = {} if first_runs is None else first_runs
    timed = []
    for index, op in enumerate(ops):
        speed.maybe_sample()
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        runs, raised = [], None
        start = perf_counter()
        with span:
            try:
                for argv in op.argvs:
                    runs.append(run_command(argv))
            except Exception as exc:  # a traceback breaks the CLI contract; record it
                raised = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        known = first_runs.setdefault(index, runs)
        if known == runs:
            runs = known
        timed.append((index, start, wall, runs, raised))
    speed.sample()
    return [
        (index, start, wall, wall * speed.scale(start, start + wall), runs, raised)
        for index, start, wall, runs, raised in timed
    ]


def nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def check(workload, results):
    failures = {}
    wrong = raised = 0
    verdicts = {}  # outputs shared between passes are checked once
    for index, _, _, _, runs, exception in results:
        if exception is not None:
            verdict = ("raised", exception.split(":")[0])
        elif (index, id(runs)) in verdicts:
            verdict = verdicts[index, id(runs)]
        else:
            try:
                verdict = workload.check(workload.ops[index], runs)
            except (ValueError, IndexError) as exc:  # output the check cannot parse
                verdict = ("wrong", f"unparsable output: {type(exc).__name__}")
            verdicts[index, id(runs)] = verdict
        if verdict is None:
            continue
        kind, detail = verdict
        wrong += kind == "wrong"
        raised += kind == "raised"
        label = f"{kind}: {detail}"
        failures[label] = failures.get(label, 0) + 1
    return failures, wrong, raised


def max_bits(results):
    best = 0
    for *_, runs, _ in results:
        for _, out, _ in runs:
            for token in re.findall(r"\d+", out):
                best = max(best, int(token).bit_length())
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = BENCH / "out" / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return
        ops = workload.ops
        pass_items = sum(op.items for op in ops)
        report = {
            "ops_per_pass": len(ops),
            "items_per_pass": pass_items,
            "items_per_op": pass_items / len(ops),
        }
        speed = SpeedLog()
        if args.trace == 0:
            results, passes, first_runs = [], 0, {}
            start = perf_counter()
            while perf_counter() - start < args.seconds or len(results) < MIN_OPS:
                results.extend(run_pass(ops, speed, first_runs=first_runs))
                passes += 1
            elapsed = perf_counter() - start
            scaled = [r[3] for r in results]
            report.update(
                passes=passes,
                elapsed_s=elapsed,
                wall_items_per_s=passes * pass_items / sum(r[2] for r in results),
                items_per_s=passes * pass_items / sum(scaled),
                wall_op_p50_ms=nearest_rank([r[2] for r in results], 0.5) * 1e3,
                wall_op_p90_ms=nearest_rank([r[2] for r in results], 0.9) * 1e3,
                op_p50_ms=nearest_rank(scaled, 0.5) * 1e3,
                op_p90_ms=nearest_rank(scaled, 0.9) * 1e3,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                kernel_ms=[min(speed.costs) * 1e3, statistics.median(speed.costs) * 1e3, max(speed.costs) * 1e3],
            )
        else:
            run_pass(ops, speed)  # warm-up, so first-call costs do not count as tracing overhead
            untraced = run_pass(ops, speed)
            tracer = Tracer()
            tracer.install()
            try:
                samples_before = len(speed.costs)
                traced = run_pass(ops, speed, tracer)
            finally:
                tracer.uninstall()
            results = untraced + traced
            # self times are scaled by the kernel's median over the traced pass
            scale = NOMINAL_S / statistics.median(speed.costs[samples_before - 1 :])
            layers = layer_metrics(tracer.summary(scale), tracer.counters, tracer.absent)
            layers["diagram.max_bits"] = max_bits(traced)
            untraced_s = sum(r[3] for r in untraced)
            traced_s = sum(r[3] for r in traced)
            layers["trace.overhead_ratio"] = traced_s / untraced_s
            report.update(
                untraced_items_per_s=pass_items / untraced_s,
                traced_items_per_s=pass_items / traced_s,
                spans=len(tracer.start),
                per_layer=layers,
            )
            tracer.write(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        failures, wrong, raised = check(workload, results)
        report.update(
            attempted=len(results),
            failed=sum(failures.values()),
            wrong=wrong,
            raised=raised,
            failures=failures,
        )
        if hasattr(workload, "lcm_collapse_share"):
            report["lcm_collapse_share"] = workload.lcm_collapse_share()
        print(json.dumps(report), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
