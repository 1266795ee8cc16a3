"""The permclass benchmark: end-to-end and per-layer numbers for the
user workflows.

Run from the repository root:

    python3 perfbench/run.py --workload fe_deep --seed 1 --seconds 35 --trace 0

Each workload is a fixed list of ``permclass`` command lines, run in
this process through ``permclass.cli.main`` with stdout captured, one at
a time (a closed loop with one client).  A pass runs every job once, in
an order shuffled by ``--seed``; the seed changes nothing else, so equal
results across seeds show that no job depends on an earlier one.
Passes repeat (at least three) until the next would end after ``--seconds``;
reported times are medians over passes.  Every output is checked (see
``workloads.py``) outside the timed region; a job that exits nonzero or
prints a wrong answer counts as failed.

On a shared host a job's wall time swings by a third within minutes, so
each job's time is scaled by the ``yardstick.py`` times measured just
before and after it, to the time it would take on a host where the
yardstick takes ``yardstick.NOMINAL_S``.  ``norm_wall_s`` is the median
pass of scaled job times; the unscaled ``workflow.raw_wall_s`` and the
median ``yardstick.s`` are reported beside it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracing.py`` and reports the
per-layer metrics, with ``trace.overhead_s`` the difference of the two
median pass times.  Each job also adds to one of two per-workflow times
(named per workload in ``workloads.py``); being shorter they are noisier
than ``norm_wall_s``, so they are reported unbounded, as
``workflow.part1_s`` and ``workflow.part2_s`` (scaled) from the untraced
passes of the traced run, and by name in the info line of both modes.

Output: a line ``{"info": ...}`` recording the workload, its reason, the
seed, the kernel backend, Python, nproc, the machine and the failure
ratio, then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``compare.py`` compares two sets of such outputs.

``--setup-only`` stops once the first job is ready; the main run times
``SETUP_PROBES`` such processes for ``setup_s``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "_kernels", "series", "polynomials", "algebraic",
           "class_a", "class_b", "oracle", "fixtures")
MIN_PASSES = 3          # untraced; a traced run makes at least one pair
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 60


class SetupError(Exception):
    pass


def import_program(root: Path) -> dict:
    """Import permclass from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "permclass" / "__init__.py").is_file():
        raise SetupError("no permclass sources under %s" % src)
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module("permclass." + name)
               for name in MODULES}
    if src not in Path(modules["cli"].__file__).resolve().parents:
        raise SetupError("permclass was imported from outside %s" % src)
    return modules


def environment(modules: dict) -> dict:
    return {"backend": modules["_kernels"].BACKEND,
            "python": "%s %s" % (platform.python_implementation(),
                                 platform.python_version()),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform()}


def run_job(cli, job, refs) -> tuple[float, list[str]]:
    """Run one job; return its time and its problems (none if it
    passed).  Each job starts on a collected heap, as a fresh command
    would, whatever ran before it."""
    name = " ".join(job.argv[:3])
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # a crash is one failed job, not a failed run
        return 0.0, ["%s: crashed: %r" % (name, exc)]
    if code != 0:
        return elapsed, ["%s: exit code %r: %s"
                         % (name, code, err.getvalue().strip()[:200])]
    try:
        problems = job.check(refs, out.getvalue())
    except ValueError as exc:
        problems = ["malformed output: %s" % exc]
    return elapsed, ["%s: %s" % (name, p) for p in problems]


class Runner:
    def __init__(self, modules: dict, refs, workload, seed: int) -> None:
        self.cli = modules["cli"]
        self.refs = refs
        self.workload = workload
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_order: list[str] | None = None

    def run_pass(self) -> dict:
        """One pass over the workload's jobs, the yardstick timed before
        the first and after every job.  Returns the pass's wall time,
        its time and part times with each job scaled by the yardstick
        times around it, and the median yardstick time, in seconds."""
        jobs = list(self.workload.jobs)
        self.rng.shuffle(jobs)
        if self.first_order is None:
            self.first_order = [" ".join(j.argv) for j in jobs]
        times = {"norm_wall_s": 0.0, "raw_wall_s": 0.0,
                 "part1_s": 0.0, "part2_s": 0.0}
        ticks = [yardstick.measure()]
        for job in jobs:
            elapsed, problems = run_job(self.cli, job, self.refs)
            ticks.append(yardstick.measure())
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.extend(problems)
            scaled = elapsed * yardstick.NOMINAL_S / statistics.fmean(
                ticks[-2:])
            times["norm_wall_s"] += scaled
            times["raw_wall_s"] += elapsed
            times["part%d_s" % job.part] += scaled
        times["yardstick_s"] = statistics.median(ticks)
        return times


def probe_setup() -> float:
    """Wall time of one fresh process that sets up and exits."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-only"], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError("setup probe took over %d s" % PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError("setup probe failed: %s" % proc.stderr.strip())
    return elapsed


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then until another call
    would end after ``seconds``, judged by the last call's duration."""
    deadline = time.perf_counter() + seconds
    count = 0
    while True:
        t0 = time.perf_counter()
        step()
        count += 1
        took = time.perf_counter() - t0
        if count >= minimum and time.perf_counter() + took > deadline:
            return


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    repeat(lambda: passes.append(runner.run_pass()), seconds, MIN_PASSES)
    metrics = {"norm_wall_s": (median_of(passes, "norm_wall_s"), "s")}
    metrics["setup_s"] = (statistics.median(
        probe_setup() for _ in range(SETUP_PROBES)), "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    return metrics, passes


def measure_traced(runner: Runner, tracer: tracing.Tracer,
                   seconds: float, setup_load_s: float
                   ) -> tuple[dict, int, bool]:
    plain, traced, layers = [], [], []

    def pair():
        plain.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            stats = tracer.uninstall()
        layers.append(tracing.layer_metrics(stats))

    repeat(pair, seconds, 1)
    # median_low keeps a count an integer
    metrics = {name: ((statistics.median_low if unit == "count"
                       else statistics.median)(row[name][0] for row in layers),
                      unit)
               for name, (_value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (median_of(traced, "norm_wall_s")
                                   - median_of(plain, "norm_wall_s"), "s")
    for key in ("part1_s", "part2_s", "raw_wall_s"):
        metrics["workflow." + key] = (median_of(plain, key), "s")
    metrics["yardstick.s"] = (median_of(plain, "yardstick_s"), "s")
    metrics["fixtures.load_poly.setup_s"] = (setup_load_s, "s")
    counters = [{k: v for k, (v, unit) in row.items() if unit == "count"}
                for row in layers]
    steady = all(c == counters[0] for c in counters)
    return metrics, len(traced), steady


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="permclass benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit (timed for setup_s)")
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules = import_program(ROOT)
        tracer = tracing.Tracer(modules)
        if args.trace:
            tracer.install()
        try:
            refs = workloads.load_references(ROOT, modules["fixtures"])
        finally:
            setup_stats = tracer.uninstall()
    except (SetupError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    self_check = workloads.self_check(refs)
    if args.setup_only:
        return 0

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(modules, refs, workload, args.seed)
    info = {"workload": args.workload, "why": workload.why,
            "seed": args.seed, "trace": args.trace,
            "env": environment(modules)}
    try:
        if args.trace:
            load = setup_stats.get("fixtures.load_poly")
            metrics, passes, steady = measure_traced(
                runner, tracer, args.seconds, load.incl if load else 0.0)
            info["counters_repeat_across_passes"] = steady
            parts = [metrics["workflow.part%d_s" % i][0] for i in (1, 2)]
        else:
            metrics, pass_times = measure(runner, args.seconds)
            passes = len(pass_times)
            for key in ("norm_wall_s", "raw_wall_s", "yardstick_s"):
                info["pass_" + key] = [round(p[key], 4) for p in pass_times]
            parts = [median_of(pass_times, "part%d_s" % i) for i in (1, 2)]
        info["named"] = dict(zip(workload.parts, parts))
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    info.update(passes=passes, job_order=runner.first_order,
                fail_ratio=runner.failed / runner.attempted,
                failures=runner.failures[:10], self_check=self_check or "ok")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not runner.failed and not self_check,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
