#!/usr/bin/env python3
"""The repository benchmark: builds the C++ program from source, runs one
workload for one seed, and prints one JSON result line.

    python3 perfbench/run.py --workload pr-rmat --seed 1 --seconds 10 --trace 0

Workloads (README.md says why each exists): pr-rmat, bfs-serve, and the
ungated sssp-web.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

A run has three phases, each its own process: `prepare` generates the
seeded inputs and the reference results, `setup` preprocesses the graph
into the grid (timed as setup_s), and `run` times the ops, checks every
result against the reference, and in a traced run adds the per-layer
spans and the layer probes. peak_rss_mb is the `run` process's resident
high-water mark, so input generation, set-up and the reference computation
are excluded.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full record of the run (inputs, host, diagnostics, every metric) goes to
.bench_results/. The exit code is 0 only when every op was correct.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_work"
RESULTS_DIR = ".bench_results"
# The workloads BENCHMARK.json lists. sssp-web runs the same way but is not
# listed: its wall time is too unsteady on a shared host to carry a bound
# (README.md, "sssp-web").
WORKLOADS = ("pr-rmat", "bfs-serve")
UNGATED_WORKLOADS = ("sssp-web",)

# (name, unit) of every metric, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("read_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
)
PER_LAYER = (
    ("partition.build_s", "s"),
    ("partition.write_mb", "MiB"),
    ("partition.open_s", "s"),
    ("partition.fetch_mb_per_s", "MiB/s"),
    ("partition.index_mb_per_s", "MiB/s"),
    ("crc.mb_per_s", "MiB/s"),
    ("io.read_ops", "count"),
    ("io.bytes_per_read_op", "B"),
    ("io.index_load_s", "s"),
    ("io.edge_read_s", "s"),
    ("io.write_mb", "MiB"),
    ("decode.mb_per_s", "MiB/s"),
    ("decode.s", "s"),
    ("decode.frames", "count"),
    ("decode.span_s", "s"),
    ("sched.s", "s"),
    ("sched.decision_span_s", "s"),
    ("sched.rounds_sciu", "count"),
    ("sched.rounds_full", "count"),
    ("sched.rounds_semi", "count"),
    ("apply.update_s", "s"),
    ("apply.compute_s", "s"),
    ("apply.compute_span_s", "s"),
    ("apply.serialization_s", "s"),
    ("core.iterations", "count"),
    ("core.rounds", "count"),
    ("cross_iter.s", "s"),
    ("state.load_s", "s"),
    ("state.writeback_s", "s"),
    ("buffer.hit_rate", "fraction"),
    ("buffer.evictions", "count"),
    ("buffer.saved_mb", "MiB"),
    ("service.batch_width_mean", "lanes"),
    ("service.engine_runs_per_query", "1/query"),
    ("service.rejections", "count"),
    ("service.read_mb_per_query", "MiB"),
    ("service.shared_hit_rate", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)

# A run must end within 180 s; the build before the first one is separate.
RUN_BUDGET_S = 170

_child = None


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def build():
    """Configures and builds the C++ program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        # A build tree configured from another checkout path: start over.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    if subprocess.call(compile_, stdout=sys.stderr) != 0:
        raise BenchError("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def run_phase(binary, phase, args, deadline, work):
    """Runs one phase process; returns (record, peak RSS in MiB)."""
    global _child
    out_path = os.path.join(work, phase + ".out")
    with open(out_path, "w") as out:
        _child = subprocess.Popen([binary, phase] + args, stdout=out)
        while True:
            pid, status, usage = os.wait4(_child.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                _child.kill()
                _child.wait()
                raise BenchError(phase + " exceeded the run's time budget")
            time.sleep(0.02)
        _child.returncode = os.waitstatus_to_exitcode(status)
        code, _child = _child.returncode, None
    if code != 0:
        raise BenchError("%s exited with %d" % (phase, code))
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        raise BenchError(phase + " printed no record")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def run(args):
    binary = build()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--work", work]
    if args.size == "tiny":
        common.append("--tiny")
    try:
        prepared, _ = run_phase(binary, "prepare",
                                common + ["--seed", str(args.seed)],
                                deadline, work)
        setup, _ = run_phase(binary, "setup", common, deadline, work)
        run_args = common + ["--seconds", str(args.seconds),
                             "--trace", str(args.trace)]
        if args.inject_wrong_result:
            run_args.append("--inject-wrong-result")
        timed, peak_rss_mb = run_phase(binary, "run", run_args, deadline,
                                       work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(setup["metrics"])
    measured.update(timed["metrics"])
    measured["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        if name not in measured or measured[name]["unit"] != unit:
            raise BenchError("metric %s (%s) was not measured" % (name, unit))
        metrics[name] = {"value": measured[name]["value"], "unit": unit}

    attempted = int(timed["attempted"])
    failed = int(timed["failed"])
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "run_wall_s": time.monotonic() - started}
    for record in (prepared, setup, timed):
        meta.update(record["meta"])
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record_path = os.path.join(
        RESULTS_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                 args.trace))
    with open(record_path, "w") as f:
        json.dump({"result": result, "meta": meta, "all_metrics": measured,
                   "diagnostics": timed["diagnostics"]}, f, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small graphs for the self-test")
    parser.add_argument("--inject-wrong-result", action="store_true",
                        help="corrupt one op's result; the run must fail")
    args = parser.parse_args()
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    try:
        result = run(args)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
