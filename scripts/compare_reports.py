#!/usr/bin/env python3
"""Diff two SELECT run reports (*.report.json), or two bench CSVs.

Usage:
    scripts/compare_reports.py baseline.report.json candidate.report.json
    scripts/compare_reports.py expected.csv got.csv          # exact, exits 1
    scripts/compare_reports.py a.json b.json --min-rel 0.05   # hide <5% deltas
    scripts/compare_reports.py a.json b.json \\
        --fail-on pubsub.deliveries=0 \\
        --fail-on select.round.compute_ms_per_round=0.25

Prints metric-by-metric deltas for counters, gauges and spans, plus aggregate
round-telemetry comparisons (round count and total/mean phase times, from the
timeseries points that carry `compute_ms`).

Without --fail-on the exit code is always 0 (reporting mode). Each
--fail-on METRIC=TOLERANCE names a flat metric (counter, gauge, span as
"span.<name>.total_ms", histogram as "hist.<name>.count" (or .sum, .min,
.max), memory as "mem.rss_peak_bytes", or round aggregate like
"select.round.rounds") and the maximum allowed relative change, as a
fraction (0.25 = 25%; 0 = must be identical). Any named metric whose change
exceeds its tolerance — or which is missing from either report — makes the
script exit 1, so CI can gate on it.

--allow-missing downgrades the missing-key case to a warning (exit stays 0
for that metric): use it when gating across a schema change (a v2 report
has no `memory` section; before v4, a round's phase times were not in its
timeseries point), without giving up the gate on the metrics both schemas
share. A metric missing from BOTH reports still fails — that is a typo in
the gate, not a schema skew.

Given two .csv paths, the header and every row must match exactly: the
script prints the first differing lines (line number, expected, got) and
any row-count mismatch, and exits 1 on any difference or a missing file.
The tier-1 golden gate (bench/check_golden.cmake) runs this mode against
data/expected/.
Run scripts/test_compare_reports.py for the self-test.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON ({e})")
    if "metrics" not in doc:
        sys.exit(f"{path}: not a run report (missing 'metrics')")
    return doc


def compare_csv(expected_path, got_path, shown=5):
    """Exact line-by-line CSV diff; returns the exit code (0 or 1)."""
    lines = []
    for path in (expected_path, got_path):
        try:
            with open(path, newline="") as f:
                lines.append(f.read().splitlines())
        except OSError as e:
            print(f"{path}: {e.strerror}")
            return 1
    expected, got = lines

    def line(rows, i):
        return rows[i] if i < len(rows) else "(missing)"

    differing = [i for i in range(max(len(expected), len(got)))
                 if line(expected, i) != line(got, i)]
    for i in differing[:shown]:
        print(f"line {i + 1}{' (header)' if i == 0 else ''}:\n"
              f"  expected: {line(expected, i)}\n  got:      {line(got, i)}")
    if len(differing) > shown:
        print(f"... {len(differing) - shown} more differing lines")
    if len(expected) != len(got):
        print(f"line count: expected {len(expected)}, got {len(got)}")
    if differing:
        print(f"FAIL {got_path} differs from {expected_path}")
        return 1
    print(f"ok: {got_path} matches {expected_path} ({len(got)} lines)")
    return 0


def fmt_num(x):
    if isinstance(x, float) and not x.is_integer():
        return f"{x:.6g}"
    return f"{int(x):,}"


def fmt_delta(a, b):
    delta = b - a
    sign = "+" if delta >= 0 else ""
    rel = f" ({sign}{100.0 * delta / a:.1f}%)" if a else ""
    return f"{sign}{fmt_num(delta)}{rel}"


def rel_change(a, b):
    if a == b:
        return 0.0
    if a == 0:
        return float("inf")
    return abs(b - a) / abs(a)


def diff_section(title, a, b, min_rel, transform=None):
    keys = sorted(set(a) | set(b))
    rows = []
    for k in keys:
        va, vb = a.get(k), b.get(k)
        if transform:
            va = transform(va) if va is not None else None
            vb = transform(vb) if vb is not None else None
        if va is None:
            rows.append((k, "—", fmt_num(vb), "added"))
        elif vb is None:
            rows.append((k, fmt_num(va), "—", "removed"))
        elif rel_change(va, vb) >= min_rel:
            rows.append((k, fmt_num(va), fmt_num(vb), fmt_delta(va, vb)))
    if not rows:
        return
    print(f"\n## {title}")
    width = max(len(r[0]) for r in rows)
    wa = max(len(r[1]) for r in rows)
    wb = max(len(r[2]) for r in rows)
    for name, va, vb, delta in rows:
        print(f"  {name:<{width}}  {va:>{wa}}  ->  {vb:>{wb}}  {delta}")


def round_aggregates(timeseries):
    """Per-label totals over the timeseries points that carry phase times."""
    agg = {}
    for point in timeseries:
        values = point.get("values", {})
        if "compute_ms" not in values:
            continue
        a = agg.setdefault(point.get("label", "?"),
                           {"rounds": 0, "compute_ms": 0.0, "deliver_ms": 0.0})
        a["rounds"] += 1
        a["compute_ms"] += values["compute_ms"]
        a["deliver_ms"] += values.get("deliver_ms", 0.0)
    flat = {}
    for label, a in agg.items():
        for key, val in a.items():
            flat[f"{label}.{key}"] = round(val, 3) if isinstance(val, float) else val
        if a["rounds"]:
            flat[f"{label}.compute_ms_per_round"] = round(
                a["compute_ms"] / a["rounds"], 4)
    return flat


def flat_metrics(doc):
    """Flattens one report into {metric_name: number} for --fail-on."""
    m = doc["metrics"]
    flat = {}
    flat.update(m.get("counters", {}))
    flat.update(m.get("gauges", {}))
    for name, span in m.get("spans", {}).items():
        flat[f"span.{name}.total_ms"] = span.get("total_ns", 0) / 1e6
        flat[f"span.{name}.count"] = span.get("count", 0)
    for name, hist in m.get("histograms", {}).items():
        for field in ("count", "sum", "min", "max"):
            flat[f"hist.{name}.{field}"] = hist.get(field, 0)
    flat.update(round_aggregates(doc.get("timeseries", [])))
    # Schema v3: flat end-of-run memory section (mem.* keys). Overrides the
    # gauge of the same name — the section is written last, so it is the
    # authoritative end-of-run value.
    flat.update(doc.get("memory", {}))
    return flat


def parse_fail_on(specs):
    thresholds = []
    for spec in specs:
        metric, sep, tol = spec.partition("=")
        if not sep or not metric:
            sys.exit(f"--fail-on {spec!r}: expected METRIC=TOLERANCE")
        try:
            tol_val = float(tol)
        except ValueError:
            sys.exit(f"--fail-on {spec!r}: tolerance {tol!r} is not a number")
        if tol_val < 0:
            sys.exit(f"--fail-on {spec!r}: tolerance must be >= 0")
        thresholds.append((metric, tol_val))
    return thresholds


def check_thresholds(thresholds, flat_a, flat_b, allow_missing=False):
    """Returns (violations, warnings) — each a list of strings.

    A metric missing from exactly one report is a violation unless
    `allow_missing` (schema transitions: a v2 baseline has no `memory`
    section). Missing from both is always a violation — the gate names a
    metric neither run produces, which no schema skew explains.
    """
    violations = []
    warnings = []
    for metric, tol in thresholds:
        va, vb = flat_a.get(metric), flat_b.get(metric)
        if va is None and vb is None:
            violations.append(f"{metric}: missing from both reports")
            continue
        if va is None or vb is None:
            where = "baseline" if va is None else "candidate"
            msg = f"{metric}: missing from {where} report"
            if allow_missing:
                warnings.append(f"{msg} (skipped: --allow-missing)")
            else:
                violations.append(msg)
            continue
        rel = rel_change(va, vb)
        if rel > tol:
            violations.append(
                f"{metric}: {fmt_num(va)} -> {fmt_num(vb)} "
                f"(changed {100.0 * rel:.1f}%, tolerance {100.0 * tol:.1f}%)")
    return violations, warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--min-rel", type=float, default=0.0,
                    help="hide metrics whose relative change is below this "
                         "fraction (default: show everything that changed)")
    ap.add_argument("--fail-on", action="append", default=[],
                    metavar="METRIC=TOLERANCE",
                    help="exit 1 when METRIC's relative change exceeds "
                         "TOLERANCE (a fraction; repeatable)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="a --fail-on metric missing from one report is a "
                         "warning, not a failure (schema transitions); "
                         "missing from both still fails")
    args = ap.parse_args()
    if args.baseline.endswith(".csv") or args.candidate.endswith(".csv"):
        if args.fail_on:
            ap.error("--fail-on gates run reports; CSVs always match exactly")
        sys.exit(compare_csv(args.baseline, args.candidate))
    thresholds = parse_fail_on(args.fail_on)

    a, b = load(args.baseline), load(args.candidate)

    print(f"baseline : {args.baseline}  "
          f"[{a.get('experiment', '?')} @ {a.get('git_describe', '?')}]")
    print(f"candidate: {args.candidate}  "
          f"[{b.get('experiment', '?')} @ {b.get('git_describe', '?')}]")

    ma, mb = a["metrics"], b["metrics"]
    diff_section("counters", ma.get("counters", {}), mb.get("counters", {}),
                 args.min_rel)
    diff_section("gauges", ma.get("gauges", {}), mb.get("gauges", {}),
                 args.min_rel)
    diff_section("spans (total ms)",
                 {k: v["total_ns"] for k, v in ma.get("spans", {}).items()},
                 {k: v["total_ns"] for k, v in mb.get("spans", {}).items()},
                 args.min_rel, transform=lambda ns: round(ns / 1e6, 3))
    diff_section("round telemetry (aggregated per label)",
                 round_aggregates(a.get("timeseries", [])),
                 round_aggregates(b.get("timeseries", [])), args.min_rel)
    print()

    if thresholds:
        violations, warnings = check_thresholds(
            thresholds, flat_metrics(a), flat_metrics(b),
            allow_missing=args.allow_missing)
        for w in warnings:
            print(f"  WARN {w}")
        if violations:
            print("## threshold violations")
            for v in violations:
                print(f"  FAIL {v}")
            sys.exit(1)
        print(f"all {len(thresholds)} threshold(s) within tolerance "
              f"({len(warnings)} skipped)")


if __name__ == "__main__":
    main()
