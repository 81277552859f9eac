#!/usr/bin/env python3
"""Render a self-contained HTML report from a run report + trace pair.

Usage:
    scripts/trace_report.py results/figure_sweep.report.json \\
        [results/figure_sweep.trace.json] [-o out.html]

The trace path defaults to the report path with .report.json replaced by
.trace.json. Output (default: report path with .html) is a single HTML file
with inline SVG — no external assets, opens anywhere:

  * hop-depth distribution of traced disseminations (bar chart)
  * per-round relay-ratio / avg-route-hops curves from the report's
    timeseries section (line chart)
  * slowest-publish drill-down: the traced publishes with the largest
    completion time, each with its hop-by-hop delivery path

Stdlib only; pairs with the Perfetto trace (ui.perfetto.dev) for the
interactive view.
"""

import argparse
import html
import json
import os
import sys


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"{path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid {what} JSON ({e})")


def esc(s):
    return html.escape(str(s), quote=True)


# ---------------------------------------------------------------- SVG helpers

W, H, PAD = 640, 240, 40


def svg_open():
    return (f'<svg viewBox="0 0 {W} {H}" width="{W}" height="{H}" '
            f'role="img" xmlns="http://www.w3.org/2000/svg">')


def axis(x_label, y_label, y_max):
    parts = [
        f'<line x1="{PAD}" y1="{H - PAD}" x2="{W - 10}" y2="{H - PAD}" '
        f'stroke="#888"/>',
        f'<line x1="{PAD}" y1="{H - PAD}" x2="{PAD}" y2="{10}" '
        f'stroke="#888"/>',
        f'<text x="{W // 2}" y="{H - 6}" text-anchor="middle" '
        f'class="lbl">{esc(x_label)}</text>',
        f'<text x="12" y="{H // 2}" text-anchor="middle" class="lbl" '
        f'transform="rotate(-90 12 {H // 2})">{esc(y_label)}</text>',
        f'<text x="{PAD - 4}" y="{16}" text-anchor="end" '
        f'class="tick">{y_max:g}</text>',
        f'<text x="{PAD - 4}" y="{H - PAD}" text-anchor="end" '
        f'class="tick">0</text>',
    ]
    return "".join(parts)


def bar_chart(pairs, x_label, y_label):
    """pairs: [(x_text, count)] -> inline SVG bar chart."""
    if not pairs:
        return "<p class='empty'>no data</p>"
    y_max = max(c for _, c in pairs) or 1
    n = len(pairs)
    slot = (W - PAD - 20) / n
    bar_w = max(4, slot * 0.7)
    out = [svg_open(), axis(x_label, y_label, y_max)]
    for i, (x_text, count) in enumerate(pairs):
        bh = (H - PAD - 14) * count / y_max
        x = PAD + 6 + i * slot
        y = H - PAD - bh
        out.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                   f'height="{bh:.1f}" fill="#4a7db5">'
                   f'<title>{esc(x_text)}: {count}</title></rect>')
        out.append(f'<text x="{x + bar_w / 2:.1f}" y="{H - PAD + 14}" '
                   f'text-anchor="middle" class="tick">{esc(x_text)}</text>')
        if count:
            out.append(f'<text x="{x + bar_w / 2:.1f}" y="{y - 3:.1f}" '
                       f'text-anchor="middle" class="tick">{count}</text>')
    out.append("</svg>")
    return "".join(out)


def line_chart(series, x_label, y_label):
    """series: {name: [(x, y)]} -> inline SVG multi-line chart."""
    series = {k: v for k, v in series.items() if v}
    if not series:
        return "<p class='empty'>no data</p>"
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_max = max(ys) or 1.0
    x_span = (x_max - x_min) or 1
    colors = ["#4a7db5", "#b5564a", "#4ab57d", "#9a4ab5"]
    out = [svg_open(), axis(x_label, y_label, y_max)]

    def px(x):
        return PAD + 6 + (W - PAD - 26) * (x - x_min) / x_span

    def py(y):
        return H - PAD - (H - PAD - 14) * y / y_max

    for i, (name, pts) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{W - 12}" y="{18 + 14 * i}" text-anchor="end" '
                   f'class="tick" fill="{color}">{esc(name)}</text>')
    out.append(f'<text x="{PAD + 4}" y="{H - PAD + 14}" class="tick">'
               f'{x_min:g}</text>')
    out.append(f'<text x="{W - 12}" y="{H - PAD + 14}" text-anchor="end" '
               f'class="tick">{x_max:g}</text>')
    out.append("</svg>")
    return "".join(out)


# ------------------------------------------------------------- trace parsing


def provenance_events(trace):
    """Splits traceEvents into (publishes, hops_by_trace)."""
    publishes = []
    hops = {}
    for e in trace.get("traceEvents", []):
        if e.get("cat") != "provenance" or e.get("ph") != "X":
            continue
        args = e.get("args", {})
        name = e.get("name", "")
        if name.startswith("hop "):
            hops.setdefault(args.get("trace"), []).append({
                "from": args.get("from"), "to": e.get("tid"),
                "depth": args.get("depth", 0),
                "relay": args.get("relay", False),
                "delivered": args.get("delivered", False),
                "send_us": e.get("ts", 0),
                "arrive_us": e.get("ts", 0) + e.get("dur", 0),
            })
        else:
            publishes.append({
                "name": name, "publisher": e.get("tid"),
                "trace": args.get("trace"),
                "ts_us": e.get("ts", 0), "dur_us": e.get("dur", 0),
            })
    return publishes, hops


def depth_distribution(hops_by_trace):
    counts = {}
    for hops in hops_by_trace.values():
        for h in hops:
            counts[h["depth"]] = counts.get(h["depth"], 0) + 1
    return [(str(d), counts[d]) for d in sorted(counts)]


def timeseries_series(report, keys):
    series = {k: [] for k in keys}
    for p in report.get("timeseries", []):
        values = p.get("values", {})
        for k in keys:
            if k in values:
                series[k].append((p.get("round", 0), values[k]))
    return series


def drilldown_html(publishes, hops_by_trace, top_n):
    ranked = sorted((p for p in publishes if p["trace"] in hops_by_trace),
                    key=lambda p: p["dur_us"], reverse=True)[:top_n]
    if not ranked:
        return "<p class='empty'>no traced publishes in this run</p>"
    out = []
    for p in ranked:
        hops = sorted(hops_by_trace[p["trace"]],
                      key=lambda h: (h["arrive_us"], h["depth"]))
        delivered = sum(1 for h in hops if h["delivered"])
        relays = sorted({h["to"] for h in hops if h["relay"]})
        out.append("<details><summary>"
                   f"<b>{esc(p['name'])}</b> from peer {esc(p['publisher'])} "
                   f"— completes in {p['dur_us'] / 1000.0:.3f} ms, "
                   f"{len(hops)} hops, {delivered} deliveries, "
                   f"{len(relays)} relays</summary>")
        out.append("<table><tr><th>#</th><th>from</th><th>to</th>"
                   "<th>depth</th><th>role</th><th>arrives (ms)</th></tr>")
        for i, h in enumerate(hops):
            role = ("relay" if h["relay"]
                    else "deliver" if h["delivered"] else "forward")
            out.append(
                f"<tr><td>{i}</td><td>{esc(h['from'])}</td>"
                f"<td>{esc(h['to'])}</td><td>{h['depth']}</td>"
                f"<td>{role}</td><td>{h['arrive_us'] / 1000.0:.3f}</td></tr>")
        out.append("</table></details>")
    return "".join(out)


STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 760px; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.lbl { font-size: 12px; fill: #444; } .tick { font-size: 10px; fill: #666; }
.meta { color: #666; font-size: 0.9em; }
.empty { color: #999; font-style: italic; }
table { border-collapse: collapse; margin: 0.4em 0 0.8em; }
td, th { border: 1px solid #ddd; padding: 2px 8px; text-align: right; }
th { background: #f4f4f4; }
details { margin: 0.5em 0; } summary { cursor: pointer; }
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="*.report.json from a bench run")
    ap.add_argument("trace", nargs="?",
                    help="matching *.trace.json (default: derived)")
    ap.add_argument("-o", "--output", help="output HTML path")
    ap.add_argument("--top", type=int, default=5,
                    help="publishes in the slowest-publish drill-down")
    args = ap.parse_args()

    trace_path = args.trace or args.report.replace(".report.json",
                                                  ".trace.json")
    out_path = args.output or args.report.replace(".report.json", "") + ".html"

    report = load_json(args.report, "run report")
    trace = load_json(trace_path, "trace")

    publishes, hops_by_trace = provenance_events(trace)
    meta = trace.get("metadata", {})
    series = timeseries_series(report, ["relay_ratio", "avg_route_hops"])

    doc = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{esc(report.get('experiment', 'run'))} trace report</title>",
        f"<style>{STYLE}</style></head><body>",
        f"<h1>{esc(report.get('experiment', 'run'))}</h1>",
        f"<p class='meta'>git {esc(report.get('git_describe', '?'))} · "
        f"{esc(os.path.basename(args.report))} + "
        f"{esc(os.path.basename(trace_path))} · "
        f"{meta.get('publishes_sampled', 0)}/{meta.get('publishes_seen', 0)} "
        f"publishes sampled, {meta.get('hops_recorded', 0)} hops recorded"
        "</p>",
        "<h2>Hop-depth distribution</h2>",
        bar_chart(depth_distribution(hops_by_trace), "tree depth", "hops"),
        "<h2>Per-round relay ratio & route length</h2>",
        line_chart(series, "round", "value"),
        f"<h2>Slowest traced publishes (top {args.top})</h2>",
        drilldown_html(publishes, hops_by_trace, args.top),
        "</body></html>",
    ]
    with open(out_path, "w") as f:
        f.write("".join(doc))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
