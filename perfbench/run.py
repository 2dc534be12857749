#!/usr/bin/env python3
"""Benchmark of kacvmrt: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sweep|query|roundtrip --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory (nothing needs installing).  The run builds the seeded
inputs, runs an untimed warm-up round where caches matter (sweep,
roundtrip), then whole rounds of the same operations until `--seconds`
have passed, and checks every output with `checks.py`.  The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics
under `--trace 1`.  `attempted` and `failed` count the operations of one
round: every round runs the same operations, and a round whose outputs
differ from the first round's makes `correct` false.  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 15


REF_ITERATIONS = 500
SAMPLE_PERIOD = 0.005
# The reference loop's time in the quiet moments of the 2-core host where
# the bounds were set: the fastest of thousands of samples, run after run.
# A fixed value rather than each run's fastest sample, because a run can
# pass without a single quiet moment.  Scaled times are in units of it, so
# compare runs made on one host.
QUIET_REF_S = 0.000115


class SpeedSampler:
    """Times a fixed pure-Python reference loop (about 0.1 ms on a quiet
    host) every SAMPLE_PERIOD seconds, from a SIGALRM handler, while the
    run goes on.

    `quiet(t0, t1)` gives the time the work in [t0, t1] would have taken
    on the quiet host: the interval's length, less the handler's own runs
    inside it, times the mean of QUIET_REF_S / ref over the samples inside
    it (the two nearest when none falls inside).  See README, 'Times at the quiet
    speed of the host'.
    """

    def __init__(self) -> None:
        self.starts, self.refs = [], []

    def _tick(self, signum, frame) -> None:
        # Tuples, dict look-ups and a sort: the kind of work the package
        # does.  An integer-only loop slowed less than the workloads did
        # when the host was busy (1.6x against 2x), an object loop about
        # as much, and it halved what was left of the spread.
        t0 = time.perf_counter()
        d = {}
        for i in range(REF_ITERATIONS):
            d[i, i & 7] = d.get((i - 1, (i - 1) & 7), 0) + 1
        sorted(d.values())
        self.starts.append(t0)
        self.refs.append(time.perf_counter() - t0)

    def __enter__(self):
        # One CPU for this process and the processes it starts, so that the
        # loop times the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def quiet(self, t0: float, t1: float, took: Optional[float] = None) -> float:
        """Quiet-speed time of work that took `took` seconds (default
        t1 - t0) inside the window [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = [k for k in range(lo, hi) if self.starts[k] + self.refs[k] <= t1]
        work = (t1 - t0 if took is None else took) - sum(self.refs[k] for k in inside)
        near = inside or [k for k in (lo - 1, lo) if 0 <= k < len(self.refs)]
        return work * statistics.fmean(QUIET_REF_S / self.refs[k] for k in near)


class Rounds:
    """The (start, end) of every operation of the timed rounds."""

    def __init__(self) -> None:
        self.windows = []

    def per_op_median(self, sampler: SpeedSampler):
        """Each operation's median time over the rounds, at quiet speed.
        The median rather than the fastest: it keeps a cost that most
        rounds pay, and a single lucky round does not set it (on a 2-core
        host, the spread of op_p50_s on sweep over five seeds fell from
        7.7% to 2.9%)."""
        return [statistics.median(sampler.quiet(t0, t1) for t0, t1 in col)
                for col in zip(*self.windows)]

    def raw_round_wall(self) -> float:
        """Median raw wall time of a round: the sum of its operations'
        windows, unscaled, so that costs the per-operation median drops (a
        collection that lands on a different operation in each round)
        still show."""
        return statistics.median(sum(t1 - t0 for t0, t1 in w) for w in self.windows)


class GcClock:
    """Time spent in the cyclic garbage collector, from gc.callbacks."""

    def __init__(self) -> None:
        self.seconds, self.collections, self._t0 = 0.0, 0, 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class SetupProbes:
    """Set-up time samples, each a fresh interpreter running probe.py,
    spread evenly over the timed part."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
        self.every = seconds / SETUP_SAMPLES
        self.samples = []  # (seconds the probe took, its start, its end)
        self.due = time.perf_counter()

    def take(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        out = subprocess.run(self.cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        self.samples.append((float(out.stdout.split()[-1]), t0, time.perf_counter()))
        self.due = time.perf_counter() + self.every

    def maybe(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.take()

    def quiet_median(self, sampler: SpeedSampler) -> float:
        """Median sample, each scaled by the host's speed while it ran."""
        return statistics.median(sampler.quiet(t0, t1, dt) for dt, t0, t1 in self.samples)


def run_round(w, tracer=None, probes=None):
    """One round.  A step may append steps (the sweep's first enumeration
    adds its records)."""
    outputs, failed, windows = [], 0, []
    for i, (_, op) in enumerate(w.steps):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out, bad = op()
        windows.append((t0, time.perf_counter()))
        outputs.append(out)
        failed += bad
        if probes is not None:
            probes.maybe()
    return outputs, failed, windows


def measure(w, seconds, first, rounds_, tracer=None, probes=None):
    """Whole rounds until `seconds` pass, recorded in `rounds_`; returns
    (rounds, rounds whose outputs differ from `first`).  Failed operations
    are part of the outputs, so a round that differs from the first in
    what failed counts here."""
    rounds = differ = 0
    deadline = time.perf_counter() + seconds
    while True:
        outputs, _, windows = run_round(w, tracer, probes)
        rounds_.windows.append(windows)
        rounds += 1
        differ += outputs != first
        if time.perf_counter() >= deadline:
            return rounds, differ


def warm_up(w, rounds_):
    """The first round: untimed where caches matter (sweep, roundtrip); a
    timed round for query, whose every operation is a fresh process."""
    t0 = time.perf_counter()
    first, failed, windows = run_round(w)
    if w.name == "query":
        rounds_.windows.append(windows)
    return first, failed, time.perf_counter() - t0


def end_to_end(w, args, probes):
    timed = Rounds()
    with SpeedSampler() as sampler:
        first, failed, spent = warm_up(w, timed)
        budget = args.seconds - spent if w.name == "query" else args.seconds
        more, differ = measure(w, max(budget, 0), first, timed, probes=probes)
        while len(probes.samples) < SETUP_SAMPLES:
            probes.take()
    rounds = 1 + more
    if w.name == "query":
        rss_mb = w.data["state"]["max_rss_kb"] / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_op = timed.per_op_median(sampler)
    p50 = [b for (cls, _), b in zip(w.steps, per_op) if cls == w.p50_class]
    metrics = {
        "setup_s": (probes.quiet_median(sampler), "s"),
        "total_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(p50), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{w.name}: {rounds} rounds of {len(w.steps)} ops, {len(p50)} {w.p50_class} ops "
          f"per round, {len(timed.windows)} timed rounds; {len(sampler.refs)} speed samples, "
          f"reference loop {min(sampler.refs) * 1e3:.3f} ms at fastest, "
          f"{statistics.median(sampler.refs) * 1e3:.3f} ms median; total_s {sum(per_op):.4f} s "
          f"scaled, raw round wall {timed.raw_round_wall():.4f} s median", file=sys.stderr)
    return first, failed, differ, metrics


def per_layer(w, args, tracer):
    """Half the time untraced, half traced (at least one round each);
    per-layer numbers are per traced round."""
    plain, traced = Rounds(), Rounds()
    trace_dir = os.path.join(OUT, f"spans-{w.name}-{w.seed}-{os.getpid()}")
    with SpeedSampler() as sampler:
        first, failed, spent = warm_up(w, plain)
        half = args.seconds / 2
        budget = half - spent if w.name == "query" else half
        with GcClock() as gc_clock:
            more, differ = measure(w, max(budget, 0), first, plain)

        os.makedirs(trace_dir, exist_ok=True)
        if w.name == "query":
            w.data["state"]["trace_dir"] = trace_dir
        hits0, misses0 = tracer.cache_counts()
        tracer.enabled = True
        n_traced, d = measure(w, half, first, traced, tracer=tracer)
        tracer.enabled = False
        hits1, misses1 = tracer.cache_counts()
    differ += d

    if w.name == "query":
        # Each child wrote its own spans, counters and cache counts.
        self_s, total_s, calls, counts = {}, {}, {}, {}
        spans = []
        hits = 0
        for fname in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, fname)) as fh:
                child = json.load(fh)
            s, tot, c = tracing.self_times(child["spans"])
            for acc, part in ((self_s, s), (total_s, tot), (calls, c), (counts, child["counts"])):
                for k, v in part.items():
                    acc[k] = acc.get(k, 0) + v
            hits += child["cache"][0]
            spans.append(child["spans"])
    else:
        self_s, total_s, calls = tracing.self_times(tracer.spans)
        counts = tracer.counts
        hits = hits1 - hits0
        spans = tracer.spans
    shutil.rmtree(trace_dir)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{w.name}-{w.seed}.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": w.seed, "traced_rounds": n_traced,
                   "spans": spans, "counts": dict(counts)}, fh)

    per = lambda x: x / n_traced  # noqa: E731
    m = {}
    for name in ("roots.positive_roots", "affine.affine_diagram", "diagrams.classify",
                 "diagrams.parabolic_dimension", "diagrams.find_isomorphism",
                 "atlas.enumerate_entries", "engine.z_orbit_diagram", "engine.vmrt",
                 "render.to_canonical_text", "render.parse"):
        m[f"{name}.self_s"] = (per(self_s.get(name, 0.0)), "s")
        m[f"{name}.calls"] = (per(calls.get(name, 0)), "count")
    for name in ("affine.kac_labels", "atlas.lookup", "engine.identify", "engine.fold_consistency",
                 "engine.contact_grading_check", "render.render", "cli.main"):
        m[f"{name}.self_s"] = (per(self_s.get(name, 0.0)), "s")
    pr_calls = calls.get("roots.positive_roots", 0)
    m["roots.positive_roots.cache_hit_ratio"] = (hits / pr_calls if pr_calls else 0.0, "ratio")
    m["diagrams.neighbors.calls"] = (per(counts.get("diagrams.neighbors", 0)), "count")
    m["diagrams.edge_between.calls"] = (per(counts.get("diagrams.edge_between", 0)), "count")
    vmrt_calls = per(calls.get("engine.vmrt", 0))
    m["engine.vmrt.calls_per_entry"] = (vmrt_calls / w.entries if w.entries else 0.0, "calls/entry")
    for check in tracing.VERIFY_CHECKS:
        m[f"verify.{check}.total_s"] = (per(total_s.get(f"verify.{check}", 0.0)), "s")
    m["trace.overhead_s"] = (sum(traced.per_op_median(sampler)) - sum(plain.per_op_median(sampler)), "s")
    m["round.wall_s"] = (plain.raw_round_wall(), "s")
    m["gc.pause_s"] = (gc_clock.seconds / more, "s")
    return first, failed, differ, m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.CHECKERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Str hashes are salted per process, which moves set and dict
        # layouts and with them the speed of a whole run by a few percent;
        # one fixed salt for this process and every child it starts.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    if not os.path.isfile(os.path.join(SRC, "kacvmrt", "__init__.py")):
        print(f"error: no kacvmrt sources under {SRC}; run from a kacvmrt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kacvmrt

    if not os.path.abspath(kacvmrt.__file__).startswith(SRC + os.sep):
        print(f"error: imported kacvmrt from {kacvmrt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        # Installed before the build, so that the workload's own imports
        # of kacvmrt functions bind the wrappers.
        tracer = tracing.Tracer()
        tracer.install()
        w = workloads.build(args.workload, args.seed, ROOT)
        first, failed, differ, metrics = per_layer(w, args, tracer)
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        w = workloads.build(args.workload, args.seed, ROOT)
        first, failed, differ, metrics = end_to_end(w, args, probes)

    problems = workloads.CHECKERS[w.name](w, first)
    if differ:
        problems.append(f"{differ} rounds gave outputs that differ from the first round")
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(w.steps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
