#!/usr/bin/env python3
"""Runs every workload on seeds 1-10 and summarizes each end-to-end metric.

    python3 perfbench/ledger.py

Each run is `run.py --workload W --seed N --seconds <run_seconds> --trace 0`
with run_seconds from BENCHMARK.json. For every workload and metric it
prints the median over the seeds, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median. The last line is the same summary as one JSON object, the form of
an entry of perfbench/trajectory.json.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    entry = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "seconds": seconds,
             "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in SEEDS:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n"
                         f"{done.stderr[-4000:]}")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        table = {}
        for name, (vals, unit) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "unit": unit}
            print(f"  {name:20s} {med:14.6g} {unit:6s} q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.4f}", flush=True)
        entry["workloads"][workload] = table
    print(json.dumps(entry))


if __name__ == "__main__":
    main()
