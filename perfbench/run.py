#!/usr/bin/env python3
"""Host-speed and simulated-outcome benchmark of the ecldb simulator.

Run from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 55 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, then simulates one workload in single-process runs, checks
every run, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs: a fixed set of
traffic streams per seed, each simulated in several rounds that take turns,
stopping early if --seconds would be overrun.
--trace 1 runs untraced and probe-traced simulations in pairs and reports
the per-layer metrics. Metric definitions and the workload rationale are in
README.md. Exits non-zero on any failed check. Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crowd", "diurnal", "rack")
# Independent traffic streams simulated per run. One stream's simulated
# latency and energy swing with its own arrival history (the crowd's MMPP
# tenant, the rack's wake timing), so sim.* metrics are medians over a
# fixed number of streams.
STREAMS = {"crowd": 8, "diurnal": 5, "rack": 4}
# The first TIMED streams run every round; host metrics are medians over
# them. The others run in the first round only, for the sim.* medians.
TIMED = {"crowd": 5, "diurnal": 5, "rack": 4}
# Stream i of seed n uses traffic seed n + i * STREAM_STRIDE; stream 0 is
# the seed itself.
STREAM_STRIDE = 1000003
# Rounds over the timed streams: each is simulated once per round, each
# time in a new process, and its host time is the sum over its sampler
# windows of each window's least CPU time in any round (see stream_cpu_s).
# At least MIN_ROUNDS run even if --seconds is overrun.
ROUNDS = {"crowd": 3, "diurnal": 3, "rack": 3}
MIN_ROUNDS = 2
SPAN_KEYS = ("hwsim_s", "engine_s", "nodes_s", "events_s", "submit_s",
             "callback_s", "residual_s")
REP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configures and builds both simulation binaries into build_dir."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    )
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=left, check=False)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def run_sim(binary, workload, seed):
    """One simulation in its own process; returns its parsed JSON line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=REP_TIMEOUT_S, check=False)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed nothing (exit %d)" %
                           (os.path.basename(binary), result.returncode))
    rep = json.loads(lines[-1])
    rep["exit_code"] = result.returncode
    return rep


def median(values):
    return statistics.median(values)


def sim_seconds(rep):
    return rep["trace_sim_s"] + rep["drain_sim_s"]


def host_seconds(rep):
    """Host wall time of the trace plus the drain (set-up excluded)."""
    return rep["run_s"] + rep["drain_s"]


def cpu_seconds(rep):
    """Host CPU time of the trace plus the drain (set-up excluded)."""
    return rep["run_cpu_s"] + rep["drain_cpu_s"]


def stream_cpu_s(runs):
    """Host CPU seconds of one stream's trace plus drain, over its runs.

    The runs simulate identically, so sampler window i is the same work in
    each. On a shared host, other processes' memory traffic slows some
    stretches of a run and never speeds one up, so each window counts with
    its least CPU time in any run. CPU time, not wall time, because a
    single-threaded simulation's wall time also counts the time other
    processes held its core."""
    return sum(map(min, zip(*(r["window_cpu_s"] for r in runs))))


def end_to_end(streams, rounds):
    """(name, value, unit): sim.* are medians over the streams, host figures
    medians over the timed streams (the lists in rounds).

    Set-up, like the trace, counts with its least CPU time over a stream's
    rounds."""
    reps = [r for runs in rounds for r in runs]
    host = [stream_cpu_s(runs) for runs in rounds]
    return [
        ("setup_s",
         median([min(r["setup_cpu_s"] for r in runs) for runs in rounds]),
         "s"),
        ("sim_s_per_host_s",
         median([sim_seconds(r) / h for r, h in zip(streams, host)]), "s/s"),
        ("host_us_per_query",
         median([h / r["arrivals"] * 1e6 for r, h in zip(streams, host)]),
         "us"),
        ("peak_rss_mb", median([r["peak_rss_mb"] for r in reps]), "MB"),
        ("sim.energy_per_kquery_j",
         median([r["energy_j"] / r["completed"] * 1e3 for r in streams]), "J"),
        ("sim.p50_ms", median([r["p50_ms"] for r in streams]), "ms"),
        ("sim.p999_ms", median([r["p999_ms"] for r in streams]), "ms"),
        ("sim.goodput_frac",
         median([r["within_deadline"] / r["arrivals"] for r in streams]),
         "frac"),
        ("sim.fail_frac",
         median([(r["arrivals"] - r["completed"]) / r["arrivals"]
                 for r in streams]), "frac"),
    ]


def per_layer(pairs):
    """(name, value, unit) of every per-layer metric.

    Counts come from stream 0's traced run (they repeat exactly for a
    seed); host times are medians over the traced runs."""
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    t0 = traced[0]
    nodes = t0["nodes"]

    def steps(r):
        return r["steps"] + r["ff_steps"]

    def med(fn):
        return median([fn(r) for r in traced])

    def node_advance(r):
        return r["nodes_s"] + r["hwsim_s"] + r["engine_s"]

    return [
        ("engine.advance_s", med(lambda r: r["engine_s"]), "s"),
        ("engine.advance_us_per_step",
         med(lambda r: r["engine_s"] / steps(r) * 1e6), "us"),
        ("hwsim.advance_s", med(lambda r: r["hwsim_s"]), "s"),
        ("hwsim.advance_us_per_step",
         med(lambda r: r["hwsim_s"] / steps(r) * 1e6), "us"),
        ("cluster.advance_s", med(node_advance), "s"),
        ("cluster.advance_us_per_step_node",
         med(lambda r: node_advance(r) / (steps(r) * nodes) * 1e6), "us"),
        ("engine.submit_s", med(lambda r: r["submit_s"]), "s"),
        ("engine.submit_us_per_query",
         med(lambda r: r["submit_s"] / r["submitted"] * 1e6), "us"),
        ("sim.events_s", med(lambda r: r["events_s"]), "s"),
        ("loadgen.callback_s", med(lambda r: r["callback_s"]), "s"),
        ("sim.residual_s", med(lambda r: r["residual_s"]), "s"),
        ("sim.steps", steps(t0), "count"),
        ("sim.ff_steps", t0["ff_steps"], "count"),
        ("sim.ff_frac",
         t0["ff_sim_s"] / (t0["ff_sim_s"] + t0["stepped_sim_s"]), "frac"),
        ("sim.steps_per_query", steps(t0) / t0["arrivals"], "count"),
        ("sim.events", t0["events"], "count"),
        ("sim.window_host_ms_p50", med(lambda r: r["window_ms_p50"]), "ms"),
        ("sim.window_host_ms_tail", med(lambda r: r["window_ms_tail"]), "ms"),
        ("ecl.prime_s", median([r["prime_s"] for r in untraced]), "s"),
        ("experiment.construct_s",
         median([r["construct_s"] for r in untraced]), "s"),
        ("experiment.drain_s", median([r["drain_s"] for r in untraced]), "s"),
        ("ecl.ticks", t0["ecl_ticks"], "count"),
        ("ecl.multiplexed_evals", t0["ecl_multiplexed_evals"], "count"),
        ("cluster.power_downs", t0["cluster_power_downs"], "count"),
        ("cluster.wakes", t0["cluster_wakes"], "count"),
        ("cluster.migrations_completed", t0["cluster_migrations_completed"],
         "count"),
        ("cluster.remote_sends", t0["cluster_remote_sends"], "count"),
        ("cluster.stale_forwards", t0["cluster_stale_forwards"], "count"),
        ("faults.injected", t0["faults_injected"], "count"),
        ("engine.failed", t0["engine_failed"], "count"),
        ("loadgen.retries", t0["retries"], "count"),
        ("loadgen.shed", t0["shed"], "count"),
        ("loadgen.admit_frac",
         t0["admitted"] / (t0["arrivals"] + t0["retries"]), "frac"),
        ("trace.overhead_frac",
         median([cpu_seconds(t) / cpu_seconds(u) - 1.0 for u, t in pairs]),
         "frac"),
    ]


def check(reps):
    """Cross-run checks; returns a list of violations."""
    bad = []
    by_seed = {}
    for r in reps:
        kind = "traced" if r["traced"] else "untraced"
        if not r["correct"] or r["exit_code"] != 0:
            bad.append("%s run of seed %d: %s" %
                       (kind, r["seed"],
                        r["violations"] or "exit %d" % r["exit_code"]))
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    # Repeats of one stream, traced or not, must simulate identically.
    for seed, digests in sorted(by_seed.items()):
        if len(digests) != 1:
            bad.append("seed %d: simulated outputs differ between runs "
                       "(digests %s)" % (seed, ", ".join(sorted(digests))))
    for r in reps:
        if not r["traced"]:
            continue
        total = host_seconds(r)
        summed = sum(r[k] for k in SPAN_KEYS)
        # The spans cover RunUntil plus the drain; the outer timers add only
        # a few clock reads, so a gap beyond 1 % is a probe defect.
        if abs(summed - total) > 0.01 * total:
            bad.append("seed %d: span accounting does not close: %.4f s of "
                       "%.4f s" % (r["seed"], summed, total))
    return bad


def measure(bindir, workload, seed, seconds, trace):
    """Returns (streams, rounds, pairs): stream i's first untraced run, the
    list of every untraced run of timed stream i, and the (untraced,
    traced) pairs of a --trace 1 run."""
    untraced_bin = os.path.join(bindir, "perfbench_sim")
    traced_bin = os.path.join(bindir, "perfbench_sim_traced")
    k = STREAMS[workload]
    seeds = [seed + i * STREAM_STRIDE for i in range(k)]
    start = time.monotonic()
    if trace:
        pairs, last = [], 0.0
        while not pairs or (len(pairs) < k and
                            time.monotonic() - start + last <= seconds):
            t0 = time.monotonic()
            s = seeds[len(pairs)]
            pairs.append((run_sim(untraced_bin, workload, s),
                          run_sim(traced_bin, workload, s)))
            last = time.monotonic() - t0
        streams = [u for u, _ in pairs]
        return streams, [[u] for u in streams], pairs
    # Rounds take turns over the streams, so one stream's runs lie a round
    # apart in time and are unlikely to meet the same burst of contention.
    streams = [run_sim(untraced_bin, workload, s) for s in seeds]
    timed = TIMED[workload]
    rounds = [[r] for r in streams[:timed]]
    last = (time.monotonic() - start) * timed / k
    for n in range(1, ROUNDS[workload]):
        t0 = time.monotonic()
        if n >= MIN_ROUNDS and t0 - start + last > seconds:
            break
        for runs, s in zip(rounds, seeds):
            runs.append(run_sim(untraced_bin, workload, s))
        last = time.monotonic() - t0
    return streams, rounds, []


def load_metric_names(section):
    """Metric names BENCHMARK.json declares for this mode, in its order."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=77001)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        wanted = load_metric_names("per_layer" if args.trace else "end_to_end")
        build(build_dir)
        streams, rounds, pairs = measure(build_dir, args.workload, args.seed,
                                         args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    reps = (streams[len(rounds):] + [r for runs in rounds for r in runs] +
            [t for _, t in pairs])
    violations = check(reps)
    print("perfbench workload=%s seed=%d streams=%d untraced_runs=%d "
          "traced_runs=%d" % (args.workload, args.seed, len(streams),
                              len(reps) - len(pairs), len(pairs)))
    for r in streams:
        print("stream seed=%d digest=%s arrivals=%d admitted=%d shed=%d "
              "completed=%d engine_failed=%d retries=%d abandoned=%d "
              "latency_samples=%d energy_j=%.6f sim.fail_frac=%.6f" %
              (r["seed"], r["digest"], r["arrivals"], r["admitted"], r["shed"],
               r["completed"], r["engine_failed"], r["retries"], r["abandoned"],
               r["latency_samples"], r["energy_j"],
               (r["arrivals"] - r["completed"]) / r["arrivals"]))
    metrics = per_layer(pairs) if args.trace else end_to_end(streams, rounds)
    for name, value, unit in metrics:
        print("metric %-34s %.6g %s" % (name, value, unit))
    for r in reps:
        if r["traced"]:
            total = host_seconds(r)
            print("closure seed=%d: spans %.4f s of %.4f s measured; %s; "
                  "window tail is p%g of %d windows" %
                  (r["seed"], sum(r[k] for k in SPAN_KEYS), total,
                   " ".join("%s=%.1f%%" % (k[:-2], 100.0 * r[k] / total)
                            for k in SPAN_KEYS),
                   r["window_tail_pct"], r["windows"]))
    for v in violations:
        print("VIOLATION: " + v)

    values = {name: (value, unit) for name, value, unit in metrics}
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(r["arrivals"] for r in streams),
        "failed": sum(r["lost"] for r in streams),
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]}
                    for n in wanted},
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
