#!/usr/bin/env python3
"""The repository benchmark: whole LC-ASGD training runs, end to end
and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-lcasgd --seed 2020 --seconds 45 --trace 0

It builds the runner binary (`perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR` or `perfbench/target`), runs the workload's training
runs one process each under a wall-clock deadline, checks every run's
outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
`--trace 1` reports its per-layer metrics (layer probes, the traced run
through the timing decorator, and the derived budgets). Workload
definitions and seeds live in `perfbench/workloads.json`.

Self-tests: `python3 perfbench/test_run.py` (metric code) and
`cargo test --release --manifest-path perfbench/Cargo.toml` (the timing
decorator is transparent).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = os.path.join(HERE, "workloads.json")

# Every per-run timing is measured at least this many times.
MIN_REPS = 3
# No process outlives this many seconds after the benchmark started.
RUN_CAP_S = 170.0
# No repetition starts after this multiple of --seconds.
RUN_SLACK = 1.1
# A training process that runs longer than this is killed and counted as
# failed (a livelocked cluster must not stall the benchmark).
REP_DEADLINE_S = 60.0

END_TO_END = {
    "samples_per_s": "1/s",
    "time_to_target_s": "s",
    "final_train_loss": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "worker.forward_ms": "ms",
    "worker.backward_ms": "ms",
    "nn.evaluate_ms": "ms",
    "predictor.loss_ms": "ms",
    "predictor.step_ms": "ms",
    "predictor.loss_ms_per_update": "ms",
    "predictor.step_ms_per_update": "ms",
    "server.apply_ms": "ms",
    "codec.pack_ms": "ms",
    "codec.unpack_ms": "ms",
    "comm.compress_ms": "ms",
    "data.generate_ms": "ms",
    "budget.compute_s": "s",
    "budget.eval_s": "s",
    "budget.predictor_s": "s",
    "budget.unattributed_frac": "fraction",
    "staleness.mean": "updates",
    "staleness.p99": "updates",
    "transport.bytes_per_update": "bytes",
    "transport.requests": "count",
    "transport.oneways": "count",
    "transport.serialize_s": "s",
    "transport.rtt_ms_mean": "ms",
    "trace.pull_s": "s",
    "trace.compute_s": "s",
    "trace.push_s": "s",
    "trace.codec_s": "s",
    "trace.comm_s": "s",
    "trace.predictor_loss_s": "s",
    "trace.predictor_step_s": "s",
    "trace.server_apply_s": "s",
    "trace.coalesce_n": "count",
    "worker.wait_frac": "fraction",
    "server.handler_ms_p50": "ms",
    "server.handler_ms_tail": "ms",
    "server.handler_ms_tail_pct": "%",
    "server.handler_n": "count",
    "server.handler_ms_max": "ms",
    "server.busy_frac": "fraction",
    "link.request_wait_ms_p50": "ms",
    "link.request_wait_ms_tail": "ms",
    "link.request_wait_ms_tail_pct": "%",
    "link.request_n": "count",
    "backend.startup_ms": "ms",
    "trace.overhead_frac": "fraction",
}

TRACE_PHASES = [
    "pull",
    "compute",
    "push",
    "codec",
    "comm",
    "predictor_loss",
    "predictor_step",
    "server_apply",
]

# Percentiles a `_tail` metric may report, highest first.
TAIL_CANDIDATES = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------- metric code


def nearest_rank(pct, n):
    """1-based nearest rank of percentile `pct` among `n` samples, in exact
    arithmetic (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(sorted_xs, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[nearest_rank(pct, len(sorted_xs)) - 1]


def tail(samples, min_beyond=10):
    """The highest candidate percentile that still has at least
    `min_beyond` samples above its nearest rank. Returns
    `(value, pct, n)`; with too few samples for any candidate it falls
    back to the median and reports pct 50."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return (0.0, 0.0, 0)
    for pct in TAIL_CANDIDATES:
        rank = nearest_rank(pct, n)
        if n - rank >= min_beyond:
            return (xs[rank - 1], pct, n)
    return (percentile(xs, 50.0), 50.0, n)


def time_to_target(epochs, target):
    """Clock time of the first epoch whose test error is at or below
    `target`, or None if the run never reaches it. `epochs` holds
    `[time, test_error, train_loss]` rows in epoch order."""
    for t, err, _ in epochs:
        if err is not None and err <= target:
            return t
    return None


def budget(probe, iterations, epochs, wall_s):
    """Splits a training call's wall time into probe-costed bars: worker
    compute (forward + backward per update), per-epoch evaluation, and
    the two predictors per update. The unattributed fraction is what the
    bars do not explain; it goes negative when bars overlap in time
    (concurrent workers)."""
    compute = iterations * (probe["forward_ms"] + probe["backward_ms"]) / 1e3
    evaluation = epochs * probe["evaluate_ms"] / 1e3
    predictor = iterations * (probe["loss_ms"] + probe["step_ms"]) / 1e3
    return {
        "budget.compute_s": compute,
        "budget.eval_s": evaluation,
        "budget.predictor_s": predictor,
        "budget.unattributed_frac": 1.0 - (compute + evaluation + predictor) / wall_s,
    }


def check_run(out, target):
    """The output checks every training run must pass. Returns a list of
    failure reasons (empty when the run is correct)."""
    if not out.get("ok"):
        return ["run returned an error: %s" % out.get("error")]
    problems = []
    if out["iterations"] != out["planned_updates"]:
        problems.append(
            "applied %d updates, planned %d" % (out["iterations"], out["planned_updates"])
        )
    epochs = out["epochs"]
    if not epochs:
        problems.append("no epoch records")
        return problems
    if any(loss is None or not math.isfinite(loss) for _, _, loss in epochs):
        problems.append("non-finite train_loss in some epoch")
    final_err = epochs[-1][1]
    if final_err is None or final_err >= 0.9:
        problems.append("final test error %s is not below chance (0.9)" % final_err)
    if time_to_target(epochs, target) is None:
        problems.append("never reached the target test error %.3f" % target)
    return problems


def sub_seed(seed, rep):
    """Seed of repetition `rep` of a run seeded `seed`: each repetition
    trains on its own generated dataset, model init and data order."""
    return (seed * 1000 + rep) % (1 << 63)


def rep_count(seconds, rep_seconds):
    return max(MIN_REPS, int(round(seconds / rep_seconds)))


# ------------------------------------------------------------- running


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "lcasgd-perfbench")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise SystemExit("perfbench: build failed (exit %d)" % res.returncode)
    path = binary_path()
    if not os.path.exists(path):
        raise SystemExit("perfbench: built binary not found at %s" % path)
    return path


def workload_flags(w):
    flags = [
        "--backend", w["backend"],
        "--workers", str(w["workers"]),
    ]
    if w.get("codec"):
        flags += ["--codec", w["codec"]]
    return flags


class Runner:
    """Runs child processes under per-process deadlines and a cap on the
    whole benchmark's wall time; counts attempts and failures."""

    def __init__(self, binary, started, seconds):
        self.binary = binary
        self.started = started
        # A slow host may stretch a run to this before repetitions stop.
        self.soft_cap = RUN_SLACK * seconds
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def remaining(self):
        return RUN_CAP_S - (time.monotonic() - self.started)

    def child(self, args, deadline_s):
        """Runs one child process; returns its parsed JSON line, or None
        when it failed. A child that misses its deadline is killed and
        counted as failed; one that crashes or prints no result is also
        counted as incorrect."""
        budget_s = min(deadline_s, self.remaining())
        self.attempted += 1
        proc = subprocess.Popen(
            [self.binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            stdout, stderr = proc.communicate(timeout=budget_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.failed += 1
            log("perfbench: %s missed its %.0f s deadline; killed" % (" ".join(args), budget_s))
            return None
        try:
            if proc.returncode != 0:
                raise ValueError("exited %d" % proc.returncode)
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as e:
            self.failed += 1
            self.incorrect += 1
            log("perfbench: %s failed (%s): %s" % (" ".join(args), e, stderr[-2000:]))
            return None

    def train(self, w, seed, traced=False):
        args = ["train"] + workload_flags(w) + ["--seed", str(seed)]
        if traced:
            args.append("--traced")
        out = self.child(args, REP_DEADLINE_S)
        if out is None:
            return None
        problems = check_run(out, w["target_error"])
        if problems:
            self.failed += 1
            self.incorrect += 1
            log("perfbench: seed %d failed its checks: %s" % (seed, "; ".join(problems)))
            return None
        crossing = [e[1] <= w["target_error"] for e in out["epochs"]].index(True) + 1
        log(
            "perfbench: seed %d%s: %.3f s, %.1f samples/s, target at epoch %d (%.3f %s s), "
            "final loss %.4f"
            % (
                seed,
                " traced" if traced else "",
                out["train_wall_s"],
                samples_per_s(out),
                crossing,
                time_to_target(out["epochs"], w["target_error"]),
                out["clock"],
                out["epochs"][-1][2],
            )
        )
        return out

    def can_start(self, w):
        elapsed = time.monotonic() - self.started
        return elapsed < self.soft_cap and self.remaining() > 2 * w["rep_seconds"]


def samples_per_s(out):
    return out["iterations"] * out["batch_size"] / out["train_wall_s"]


def end_to_end(runs, w):
    return {
        "samples_per_s": statistics.median(samples_per_s(r) for r in runs),
        "time_to_target_s": statistics.median(
            time_to_target(r["epochs"], w["target_error"]) for r in runs
        ),
        # The repetitions train on different seeds; their mean is the
        # run's estimate of the expected final loss.
        "final_train_loss": statistics.fmean(r["epochs"][-1][2] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in runs) / 1024.0,
    }


def per_layer(plain, traced, probe):
    med = statistics.median
    m = {
        "worker.forward_ms": probe["forward_ms"],
        "worker.backward_ms": probe["backward_ms"],
        "nn.evaluate_ms": probe["evaluate_ms"],
        "predictor.loss_ms": probe["loss_ms"],
        "predictor.step_ms": probe["step_ms"],
        "predictor.loss_ms_per_update": med(r["loss_ms_per_update"] for r in plain),
        "predictor.step_ms_per_update": med(r["step_ms_per_update"] for r in plain),
        "server.apply_ms": probe["apply_ms"],
        "codec.pack_ms": probe["pack_ms"],
        "codec.unpack_ms": probe["unpack_ms"],
        "comm.compress_ms": probe["compress_ms"],
        "data.generate_ms": probe["generate_ms"],
        "staleness.mean": med(r["staleness_mean"] for r in plain),
        "staleness.p99": med(r["staleness_p99"] for r in plain),
    }
    wall = med(r["train_wall_s"] for r in plain)
    iterations = med(r["iterations"] for r in plain)
    epochs = med(len(r["epochs"]) for r in plain)
    m.update(budget(probe, iterations, epochs, wall))

    def transport(key):
        return med(r["transport"][key] if "transport" in r else 0.0 for r in plain)

    m["transport.bytes_per_update"] = transport("bytes") / iterations
    m["transport.requests"] = transport("requests")
    m["transport.oneways"] = transport("oneways")
    m["transport.serialize_s"] = transport("serialize_s")
    m["transport.rtt_ms_mean"] = transport("rtt_mean_s") * 1e3

    # The simulator path (`run_experiment`) has no trace option and no
    # backend seam: its traced-run metrics stay 0.
    for p in TRACE_PHASES:
        m["trace.%s_s" % p] = med(r["phases"].get(p, 0.0) for r in traced) if traced else 0.0
    m["trace.coalesce_n"] = med(r["coalesce_n"] for r in traced) if traced else 0
    busy = m["trace.pull_s"] + m["trace.compute_s"] + m["trace.push_s"]
    m["worker.wait_frac"] = (m["trace.pull_s"] + m["trace.push_s"]) / busy if busy > 0 else 0.0

    handler_ms = [s * 1e3 for r in traced for s in r["handler_s"]]
    wait_ms = [s * 1e3 for r in traced for s in r["request_wait_s"]]
    h_tail, h_pct, h_n = tail(handler_ms)
    l_tail, l_pct, l_n = tail(wait_ms)
    m["server.handler_ms_p50"] = percentile(sorted(handler_ms), 50.0) if handler_ms else 0.0
    m["server.handler_ms_tail"] = h_tail
    m["server.handler_ms_tail_pct"] = h_pct
    m["server.handler_n"] = h_n
    m["server.handler_ms_max"] = max(handler_ms) if handler_ms else 0.0
    run_s = sum(r["run_s"] for r in traced)
    m["server.busy_frac"] = sum(handler_ms) / 1e3 / run_s if run_s > 0 else 0.0
    m["link.request_wait_ms_p50"] = percentile(sorted(wait_ms), 50.0) if wait_ms else 0.0
    m["link.request_wait_ms_tail"] = l_tail
    m["link.request_wait_ms_tail_pct"] = l_pct
    m["link.request_n"] = l_n
    m["backend.startup_ms"] = med(r["startup_s"] for r in traced) * 1e3 if traced else 0.0
    if traced:
        untraced = med(samples_per_s(r) for r in plain)
        m["trace.overhead_frac"] = 1.0 - med(samples_per_s(r) for r in traced) / untraced
    else:
        m["trace.overhead_frac"] = 0.0
    return m


# Each `_tail` metric with the metrics holding its percentile and sample count.
TAILS = {
    "server.handler_ms_tail": ("server.handler_ms_tail_pct", "server.handler_n"),
    "link.request_wait_ms_tail": ("link.request_wait_ms_tail_pct", "link.request_n"),
}


def report(metrics, units):
    for name, value in metrics.items():
        extra = ""
        if name in TAILS:
            pct, n = (metrics[k] for k in TAILS[name])
            extra = "  (p%g of n=%d)" % (pct, n)
        print("  %-32s %14.6g %s%s" % (name, value, units[name], extra))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    with open(WORKLOADS) as f:
        workloads = json.load(f)["workloads"]
    if a.workload not in workloads:
        ap.error("unknown workload %r (have: %s)" % (a.workload, ", ".join(workloads)))
    w = workloads[a.workload]
    # `run_experiment` has no trace option and no backend seam to decorate.
    traced_run = a.trace == 1 and w["backend"] != "sim"

    binary = build()
    started = time.monotonic()
    runner = Runner(binary, started, a.seconds)
    reps = rep_count(a.seconds, w["rep_seconds"] * (2 if traced_run else 1))
    log(
        "perfbench: %s seed %d, %d repetitions, %s CPUs"
        % (a.workload, a.seed, reps, os.cpu_count())
    )

    plain, traced = [], []
    for i in range(reps):
        if not runner.can_start(w):
            break
        seed = sub_seed(a.seed, i)
        out = runner.train(w, seed)
        if out is not None:
            plain.append(out)
        if traced_run and runner.can_start(w):
            out = runner.train(w, seed, traced=True)
            if out is not None:
                traced.append(out)

    if not plain or (traced_run and not traced):
        raise SystemExit("perfbench: no training run completed")
    if a.trace:
        probe = runner.child(["probe"] + workload_flags(w) + ["--seed", str(a.seed)], 120)
        if probe is None:
            raise SystemExit("perfbench: layer probes did not complete")
        metrics, units = per_layer(plain, traced, probe), PER_LAYER
    else:
        metrics, units = end_to_end(plain, w), END_TO_END

    log("perfbench: %s, %d runs attempted, %d failed" % (a.workload, runner.attempted, runner.failed))
    report(metrics, units)
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v or 0, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
