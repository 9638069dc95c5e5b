"""Benchmark of the tangleforge CLI, driven in-process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-reference

Each job calls tangleforge.cli.cli_main on a relabelled graph file, in one
process and one thread (a closed loop with one client), and every job's
output is checked (see checks.py). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics (see spans.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import checks
import hostspeed
import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
SCHEMA = os.path.join(SRC, "tangleforge", "schemas", "cli.json")

SETUP_ROUNDS = 20
SPAN_CAPACITY = 2_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class Setup:
    """One set-up of a run: a fresh import of tangleforge, the first pass of
    relabelled graph files and the reference summaries."""

    def __init__(self, workload, seed, workdir, identity=False):
        for name in [m for m in sys.modules if m == "tangleforge" or m.startswith("tangleforge.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("tangleforge.cli")
        fixtures = importlib.import_module("tangleforge.fixtures")
        self.modules = {m: sys.modules[m] for m in sys.modules if m.startswith("tangleforge.")}
        self.stream = jobs.JobStream(
            workload, seed, jobs.build_graphs(fixtures), workdir, identity=identity
        )
        self.first_pass = self.stream.next_pass()
        self.reference = {}
        if not identity:  # the identity labelling is what writes the reference
            with open(REFERENCE, "r", encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def passes(self):
        yield self.first_pass
        while True:
            yield self.stream.next_pass()


def run_job(cli, job):
    """(start, seconds, exit code, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.cli_main(job.argv())
        seconds = time.perf_counter() - start
    return start, seconds, code, out.getvalue()


class Tally:
    """Latencies and failures of checked jobs."""

    def __init__(self, checker):
        self.checker = checker
        self.latencies = []
        self.starts = []
        self.failed = 0
        self.output_bytes = 0

    def run(self, cli, job) -> float:
        start, seconds, code, stdout = run_job(cli, job)
        self.starts.append(start)
        self.latencies.append(seconds)
        self.output_bytes += len(stdout)
        reason = self.checker.check(job, code, stdout)
        if reason is not None:
            self.failed += 1
            print(f"FAILED {job.key} ({job.path}): {reason}", file=sys.stderr)
        return seconds


def tail(latencies, pct):
    """Nearest-rank `pct` percentile and the number of jobs beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def set_up(workload, seed, workdir, times):
    """One timed set-up round; appends (start, seconds) to `times`."""
    start = time.perf_counter()
    setup = Setup(workload, seed, workdir)
    times.append((start, time.perf_counter() - start))
    gc.collect()  # free the modules of the round before, whatever the GC's timing
    return setup


def measure(setup, tally, seconds, redo, probe):
    """Run whole passes until `seconds` have passed, so that every run holds
    the workload's jobs in the same mix. `redo()` sets up again and returns
    the new Setup; between jobs it is called whenever a round is due, so that
    the SETUP_ROUNDS rounds are spread over the run, and later jobs use the
    latest import. Between jobs `probe` samples the host speed whenever a
    sample is due, and once more at the end. Each pass starts with a full
    garbage collection, so that the peak RSS is the program's footprint and
    not the garbage left by earlier passes, which grows or not with the
    timing of the collector."""
    start = time.perf_counter()
    rounds = 1
    cli = setup.cli
    batches = setup.passes()
    while not tally.latencies or time.perf_counter() - start < seconds:
        batch = next(batches)
        gc.collect()
        for job in batch:
            tally.run(cli, job)
            due = 1 + (time.perf_counter() - start) / seconds * (SETUP_ROUNDS - 1)
            while rounds < min(due, SETUP_ROUNDS):
                cli = redo().cli
                rounds += 1
            if probe.due():
                probe.sample()
    while rounds < SETUP_ROUNDS:
        redo()
        rounds += 1
    probe.sample()


def end_to_end(setup_times, tally, tail_pct, probe):
    """The end-to-end metrics; every time in them is in reference seconds
    (see hostspeed.py)."""
    lat = [probe.scale(s, t) for t, s in zip(tally.starts, tally.latencies)]
    tail_s, beyond = tail(lat, tail_pct)
    attempted = len(lat)
    values = {
        "setup_s": statistics.median(probe.scale(s, t) for t, s in setup_times),
        "jobs_per_s": attempted / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - tally.failed) / attempted,
    }
    wall = {
        "setup_s": statistics.median(s for _, s in setup_times),
        "jobs_per_s": attempted / sum(tally.latencies),
        "job_p50_s": statistics.median(tally.latencies),
        "job_tail_s": tail(tally.latencies, tail_pct)[0],
    }
    notes = {name: f"{wall[name]:.6g} in wall time" for name in wall}
    notes["job_tail_s"] += f"; p{tail_pct} of {attempted} jobs, {beyond} beyond it"
    notes["ok_frac"] = f"failed_frac = {tally.failed / attempted}"
    return values, notes


def traced(setup, tally, seconds, stem):
    """Alternate untraced and span-traced passes for half of `seconds`, then
    run jobs under tracemalloc alone for the other half (at least one job):
    tracemalloc slows allocation-heavy code up to 13-fold, too much to share
    a pass with the spans or to run a whole pass of the ring workload."""
    tracer = spans.Tracer(setup.modules, SPAN_CAPACITY)
    probe = hostspeed.Probe()
    probe.sample()
    plain, spanned = [], []  # indices of the jobs in tally
    deadline = time.perf_counter() + seconds / 2
    batches = setup.passes()
    while not spanned or time.perf_counter() < deadline:
        for job in next(batches):
            tally.run(setup.cli, job)
            plain.append(len(tally.latencies) - 1)
        probe.sample()
        batch = next(batches)
        tracer.install()
        try:
            for job in batch:
                tally.run(setup.cli, job)
                tracer.end_job()
                spanned.append(len(tally.latencies) - 1)
        finally:
            tracer.uninstall()
        probe.sample()
    tracer.write(stem)
    traced_s = sum(tally.latencies[i] for i in spanned)
    # the overhead compares passes run at different moments: in reference seconds
    ref = lambda jobs: sum(probe.scale(tally.latencies[i], tally.starts[i]) for i in jobs)
    overhead = ref(spanned) / len(spanned) / (ref(plain) / len(plain)) - 1.0
    peak = measured = 0
    deadline = time.perf_counter() + seconds / 2
    tracemalloc.start()
    try:
        for job in next(batches):
            if measured and time.perf_counter() >= deadline:
                break
            measured += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tally.run(setup.cli, job)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return layer_metrics(tracer, len(spanned), traced_s, overhead, peak, tally)


def layer_metrics(tracer, jobs_traced, traced_s, overhead, peak, tally):
    values = {}
    job_s = tracer.stats("cli.cli_main")["total_s"]  # traced job time, the tracer's cost left out
    for layer, fns in spans.LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            st = tracer.stats(name)
            prefix = layer if layer == "cli" else name  # the CLI has one span: cli.self_s
            values[f"{prefix}.calls"] = st["calls"] / jobs_traced
            values[f"{prefix}.self_s"] = st["self_s"] / jobs_traced
            values[f"{prefix}.share"] = st["total_s"] / job_s
            if name in spans.KEYED:
                values[f"{name}.distinct_frac"] = (
                    st["distinct"] / st["calls"] if st["calls"] else 1.0
                )
            if name in spans.SIZED:
                values[spans.SIZED[name]] = st["size"] / st["calls"] if st["calls"] else 0.0
    values["cli.output_bytes"] = tally.output_bytes / len(tally.latencies)
    values["trace.job_s"] = traced_s / jobs_traced
    values["trace.overhead_frac"] = overhead
    values["trace.peak_tracemalloc_mb"] = peak / 2**20
    return values


def per_layer_spec() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def report(values, units, notes, attempted, failed):
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:52s} {values[name]:.6g} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )


def run_workload(args) -> int:
    workload = jobs.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.environ["TANGLEFORGE_CAPS"] = json.dumps(jobs.CAPS)
    setup_times = []
    setup = set_up(workload, args.seed, workdir, setup_times)
    with open(SCHEMA, "r", encoding="utf-8") as fh:
        tally = Tally(checks.Checker(json.load(fh), setup.reference))
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    if args.trace:
        values = traced(setup, tally, args.seconds, os.path.join(workdir, "spans"))
        units, notes = per_layer_spec(), {}
    else:
        rounds_dir = os.path.join(workdir, "setup")
        os.makedirs(rounds_dir)
        probe = hostspeed.Probe()
        probe.sample()
        measure(
            setup,
            tally,
            args.seconds,
            lambda: set_up(workload, args.seed, rounds_dir, setup_times),
            probe,
        )
        values, notes = end_to_end(setup_times, tally, workload.tail_pct, probe)
        units = END_TO_END_UNITS
    if setup.stream.repeats:
        print(f"{setup.stream.repeats} jobs repeat an earlier input (no fresh labelling left)")
    report(values, units, notes, len(tally.latencies), tally.failed)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in jobs.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_reference() -> int:
    """Record the outcome of every workload job on the identity labelling."""
    os.environ["TANGLEFORGE_CAPS"] = json.dumps(jobs.CAPS)
    reference = {}
    for workload in jobs.WORKLOADS.values():
        workdir = os.path.join(WORK, f"{workload.name}-identity")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        setup = Setup(workload, 0, workdir, identity=True)
        for job in setup.first_pass:
            _, seconds, code, stdout = run_job(setup.cli, job)
            reference[job.key] = checks.job_outcome(job.verb, code, json.loads(stdout))
            print(f"{job.key}: exit {code}, {seconds:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tangleforge", "__init__.py")):
        print(f"error: no tangleforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
