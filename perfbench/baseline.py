"""Measure a baseline: every workload on several seeds, one process per run.

    python3 perfbench/baseline.py [--seeds 1-10]

For each workload it runs `run.py --trace 0` once per seed, for the
`run_seconds` of BENCHMARK.json, and records the median, the quartiles
(statistics.quantiles, n=4) and the spread (quartile distance divided by the
median) of every end-to-end metric, then runs `run.py --trace 1` once on the
first seed for the per-layer metrics. It writes perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} jobs failed their check")
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    out = {
        "machine": f"{cpu_model()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "seconds": seconds,
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in jobs.WORKLOADS:
        values = {}
        for seed in seeds:
            result = run(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
            print(f"{workload:20s} {name:12s} median {median:.6g}  spread {(q3 - q1) / median:.3f}")
        out["end_to_end"][workload] = summary
        traced = run(workload, seeds[0], seconds, 1)
        out["per_layer"][workload] = {n: m["value"] for n, m in traced["metrics"].items()}
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
