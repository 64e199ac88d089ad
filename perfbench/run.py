"""cyberdyn benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 35 --trace 0

Workloads: dynamics, sigma-grid, analytics (see README.md). The run sets up
three times, then repeats whole rounds of the workload's fixed operations
while one more round fits in --seconds, checks the outputs, and prints
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the rounds alternate untraced and traced (one pool worker) and
the metrics are the per-module ones from the traced rounds.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

# Workloads and metrics (name -> unit) as BENCHMARK.json declares them. Every
# workload reports all of them; README.md says what unit_p50_s and
# throughput_per_s count on each workload.
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in DECLARED["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Round:
    def __init__(self, wall, ops, failed):
        self.wall, self.ops, self.failed = wall, ops, failed  # ops: [(Op, seconds)]


def run_round(workload, tracer=None):
    ops = workload.ops()
    timed, failed = [], 0

    def body():
        nonlocal failed
        for op in ops:
            t0 = time.perf_counter()
            try:
                op.fn()
            except Exception:
                failed += 1
                print(f"operation {op.name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            timed.append((op, time.perf_counter() - t0))

    t0 = time.perf_counter()
    (tracer.span("bench.round", body) if tracer else body)()
    return Round(time.perf_counter() - t0, timed, failed)


def unit_p50(rounds):
    """Geometric mean over the unit operations of each one's median time
    across rounds. The unit operations of a workload differ in size (er2000
    and pl2000 boundaries, say), so a median over all their times would sit
    between two groups and jump with either."""
    per_op = [median(r.ops[i][1] for r in rounds) for i, (op, _) in enumerate(rounds[0].ops) if op.unit]
    return math.exp(sum(math.log(t) for t in per_op) / len(per_op))


def end_to_end(workload, setup_s, rounds):
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall = median(r.wall for r in rounds)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mib": (self_usage.ru_maxrss + children.ru_maxrss) / 1024.0,
        "unit_p50_s": unit_p50(rounds),
        "throughput_per_s": workload.throughput(wall),
    }


def per_layer(tracer, traced_wall, untraced_wall):
    names, modules = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return names[name][0] if name in names else 0

    def seconds(name):
        return names[name][1] if name in names else 0.0

    steps = counts["markov.steps_executed"]
    mf_steps = counts["meanfield.steps"]
    samples = counts["thresholds.strategic_init.samples"]
    out = {
        "markov.steps_executed": steps,
        "markov.step_us": 1e6 * seconds("markov.simulate_run") / steps if steps else 0.0,
        "markov.runs_to_horizon": counts["markov.runs_to_horizon"],
        "markov.idle_tail_steps": counts["markov.idle_tail_steps"],
        "markov.useful_step_ratio": 1.0 - counts["markov.idle_tail_steps"] / steps if steps else 0.0,
        "meanfield.step_us": 1e6 * seconds("meanfield.integrate") / mf_steps if mf_steps else 0.0,
        "thresholds.strategic_init.tries_per_sample":
            counts["thresholds.strategic_init.tries"] / samples if samples else 0.0,
        "binom_approx.critical_nu_per_s":
            calls("binom_approx.critical_nu") / seconds("binom_approx.critical_nu")
            if calls("binom_approx.critical_nu") else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    }
    for metric in PER_LAYER:
        if metric in out:
            continue
        if metric.endswith(".self_s"):
            key = metric[: -len(".self_s")]
            out[metric] = modules.get(key, 0.0) if "." not in key else names[key][2] if key in names else 0.0
        elif metric.endswith(".calls"):
            out[metric] = calls(metric[: -len(".calls")])
        else:
            out[metric] = seconds(metric[: -len(".s")])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyberdyn" / "__init__.py").is_file():
        print(f"error: the cyberdyn sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workers = 1 if args.trace else min(2, len(os.sched_getaffinity(0)))
    out_dir = HERE / "_out"
    run_dir = out_dir / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workers, run_dir)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - t0)
        setup_s = import_s + median(setup)

        rounds, traced, tracers = [], [], []
        t_start = time.perf_counter()
        while True:
            rounds.append(run_round(workload))
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_round(workload, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            # Stop unless one more round (or pair) fits in the time left.
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break

        try:
            workload.check()
            correct = True
        except checks.CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        except Exception:
            print("check could not run:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    done = rounds + traced
    if args.trace:
        untraced_wall = median(r.wall for r in rounds)
        layers = [per_layer(t, r.wall, untraced_wall) for t, r in zip(tracers, traced)]
        values = {m: median(layer[m] for layer in layers) for m in PER_LAYER}
        units = PER_LAYER
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([t.dump() for t in tracers]))
        print(f"spans written to {trace_file.relative_to(HERE.parent)}")
    else:
        values = end_to_end(workload, setup_s, rounds)
        units = END_TO_END
    for i, (op, _) in enumerate(rounds[0].ops):
        times = " ".join(f"{r.ops[i][1]:.3f}" for r in done)
        print(f"{op.name} s: {times}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload:11s} {name:44s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": sum(len(r.ops) for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
