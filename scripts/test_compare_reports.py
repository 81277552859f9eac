#!/usr/bin/env python3
"""Self-test for compare_reports.py --fail-on gating (stdlib only).

Builds two synthetic run reports, then asserts the exit codes:
  * no --fail-on            -> 0 (reporting mode never gates)
  * within tolerance        -> 0
  * beyond tolerance        -> 1
  * metric missing          -> 1
  * metric missing with --allow-missing (v2 baseline vs v3 candidate) -> 0
  * metric missing from BOTH reports, even with --allow-missing       -> 1
  * mem.* keys from the schema-v3 `memory` section gate like any metric
  * malformed spec          -> nonzero usage error

Run directly (CI does): python3 scripts/test_compare_reports.py
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_reports.py")


def make_report(deliveries, compute_ms, memory=None):
    """Synthetic report; `memory` (a dict) upgrades it to schema v3."""
    report = {
        "schema_version": 2,
        "experiment": "selftest",
        "git_describe": "test",
        "metadata": {},
        "metrics": {
            "counters": {"pubsub.deliveries": deliveries,
                         "select.rounds": 10},
            "gauges": {"select.rounds_to_stable_ids": 7.0},
            "histograms": {},
            "spans": {"select.round": {"count": 10, "total_ns": 5000000}},
            "rounds": [
                {"label": "select.round", "round": r,
                 "compute_ms": compute_ms, "deliver_ms": 0.1,
                 "messages": 20}
                for r in range(10)
            ],
        },
        "timeseries": [],
    }
    if memory is not None:
        report["schema_version"] = 3
        report["memory"] = memory
    return report


def run(args):
    proc = subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def check(name, got, want, output):
        if got != want:
            failures.append(f"{name}: exit {got}, expected {want}\n{output}")
        else:
            print(f"ok: {name}")

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.report.json")
        cand = os.path.join(tmp, "cand.report.json")
        with open(base, "w") as f:
            json.dump(make_report(deliveries=1000, compute_ms=1.0), f)
        with open(cand, "w") as f:
            json.dump(make_report(deliveries=900, compute_ms=1.3), f)

        code, out = run([base, cand])
        check("no --fail-on always exits 0", code, 0, out)

        code, out = run([base, cand, "--fail-on", "pubsub.deliveries=0.2"])
        check("10% drop within 20% tolerance", code, 0, out)

        code, out = run([base, cand, "--fail-on", "pubsub.deliveries=0.05"])
        check("10% drop beyond 5% tolerance", code, 1, out)

        code, out = run([base, cand, "--fail-on", "select.rounds=0"])
        check("unchanged metric with zero tolerance", code, 0, out)

        code, out = run(
            [base, cand,
             "--fail-on", "select.round.compute_ms_per_round=0.1"])
        check("round aggregate regression gates", code, 1, out)

        code, out = run([base, cand, "--fail-on", "no.such.metric=0.5"])
        check("missing metric gates", code, 1, out)

        # Schema transition: v2 baseline (no memory section) vs v3
        # candidate. Without --allow-missing the mem gate fails; with it
        # the missing key downgrades to a warning while the shared metrics
        # keep gating.
        cand3 = os.path.join(tmp, "cand3.report.json")
        with open(cand3, "w") as f:
            json.dump(make_report(deliveries=1000, compute_ms=1.0,
                                  memory={"mem.rss_peak_bytes": 1e8,
                                          "mem.bytes_per_peer": 5e4}), f)

        code, out = run([base, cand3,
                         "--fail-on", "mem.rss_peak_bytes=0.05"])
        check("v2 baseline missing mem key gates", code, 1, out)

        code, out = run([base, cand3, "--allow-missing",
                         "--fail-on", "mem.rss_peak_bytes=0.05",
                         "--fail-on", "pubsub.deliveries=0"])
        check("--allow-missing skips schema-skew key", code, 0, out)

        code, out = run([base, cand3, "--allow-missing",
                         "--fail-on", "no.such.metric=0.5"])
        check("missing from both still gates with --allow-missing",
              code, 1, out)

        # Both reports v3: mem.* keys gate like any other flat metric.
        base3 = os.path.join(tmp, "base3.report.json")
        with open(base3, "w") as f:
            json.dump(make_report(deliveries=1000, compute_ms=1.0,
                                  memory={"mem.rss_peak_bytes": 2e8,
                                          "mem.bytes_per_peer": 5e4}), f)

        code, out = run([base3, cand3,
                         "--fail-on", "mem.rss_peak_bytes=0.05"])
        check("mem regression beyond tolerance gates", code, 1, out)

        code, out = run([base3, cand3,
                         "--fail-on", "mem.bytes_per_peer=0.05"])
        check("unchanged mem metric passes", code, 0, out)

        code, out = run([base, cand, "--fail-on", "pubsub.deliveries"])
        if code == 0:
            failures.append(f"malformed spec accepted\n{out}")
        else:
            print("ok: malformed spec rejected")

    if failures:
        print("\n".join(f"FAIL {f}" for f in failures), file=sys.stderr)
        sys.exit(1)
    print("test_compare_reports: all checks passed")


if __name__ == "__main__":
    main()
