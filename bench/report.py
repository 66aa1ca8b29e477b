"""Summarise the run records under bench/out/ as the Markdown tables of bench/README.md.

    python3 bench/report.py

For each workload: the median and quartiles of every end-to-end metric
over the untraced runs, beside the raw wall-clock figure it normalises;
the spread of each as a share of its median; a histogram of per-operation
latency pooled over the runs, with p50 and p90 marked; and, from the
traced runs, every per-layer metric and the tracing overhead.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RAW_OF = {
    "op_p50_ref": ("op_ms_p50", "ms"),
    "op_p90_ref": ("op_ms_p90", "ms"),
    "ops_per_kref": ("ops_per_s", "1/s"),
}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="exclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


def load(out_dir: Path):
    runs = {}
    for path in sorted(out_dir.glob("*.json")):
        record = json.loads(path.read_text())
        info = record["info"]
        runs.setdefault((info["workload"], info["trace"]), []).append(record)
    return runs


def steadiness(records, spec) -> list[str]:
    seeds = sorted(r["info"]["seed"] for r in records)
    lines = [
        f"{len(records)} runs, seeds {seeds[0]}..{seeds[-1]}, "
        f"{statistics.median(r['info']['ops'] for r in records):.0f} operations per run (median).",
        "",
        "| metric | unit | q1 | median | q3 | spread | raw q1 | raw median | raw q3 | raw spread |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in records])
        row = f"| `{name}` | {metric['unit']} | {fmt(q1)} | {fmt(q2)} | {fmt(q3)} | {(q3 - q1) / q2:.1%} |"
        if name in RAW_OF:
            key, unit = RAW_OF[name]
            r1, r2, r3 = quartiles([r["info"][key] for r in records])
            row += f" {fmt(r1)} {unit} | {fmt(r2)} {unit} | {fmt(r3)} {unit} | {(r3 - r1) / r2:.1%} |"
        else:
            row += " – | – | – | already raw |"
        lines.append(row)
    r1, r2, r3 = quartiles([r["info"]["ref_ms_median"] for r in records])
    lines += ["", f"One ref (the run's median reference time): {fmt(r2)} ms, quartiles over runs {fmt(r1)} to {fmt(r3)} ms."]
    return lines


def histogram(records, bins=24, width=50) -> list[str]:
    values = sorted(x for r in records for x in r["op_ref"])
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    p50, p90 = statistics.median(values), deciles[8]
    lo, hi = values[0], values[-1]
    step = (hi - lo) / bins or 1
    counts = [0] * bins
    for x in values:
        counts[min(bins - 1, int((x - lo) / step))] += 1
    top = max(counts)
    lines = ["```", f"op latency (ref)  {len(values)} operations; p50 = {fmt(p50)}, p90 = {fmt(p90)}"]
    for i, count in enumerate(counts):
        left = lo + i * step
        mark = "".join(m for m, q in (("  <- p50", p50), ("  <- p90", p90)) if left <= q < left + step)
        lines.append(f"{left:9.3f} | {'#' * round(width * count / top):<{width}} {count}{mark}")
    lines.append("```")
    return lines


def layers(traced, untraced, spec) -> list[str]:
    lines = [
        "| per-layer metric | unit | " + " | ".join(w for w in traced) + " |",
        "| --- | --- | " + " | ".join("---" for _ in traced) + " |",
    ]
    for metric in spec["per_layer"]:
        name = metric["name"]
        cells = [fmt(statistics.median(r["metrics"][name]["value"] for r in recs)) for recs in traced.values()]
        lines.append(f"| `{name}` | {metric['unit']} | " + " | ".join(cells) + " |")
    over = []
    for workload, recs in traced.items():
        base = statistics.median(r["metrics"]["op_p50_ref"]["value"] for r in untraced[workload])
        traced_p50 = statistics.median(r["info"]["op_p50_ref"] for r in recs)
        over.append(f"| {workload} | {len(recs)} | {fmt(traced_p50)} | {fmt(base)} | {traced_p50 / base:.3f} |")
    return lines + [
        "",
        "| workload | traced runs | traced `op_p50_ref` | untraced `op_p50_ref` | overhead |",
        "| --- | --- | --- | --- | --- |",
        *over,
    ]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load(HERE / "out")
    if not runs:
        print("no run records under bench/out/", file=sys.stderr)
        return 1
    untraced = {w: recs for (w, t), recs in runs.items() if t == 0}
    traced = {w: recs for (w, t), recs in runs.items() if t == 1}
    for workload, records in untraced.items():
        print(f"### {workload}\n")
        print("\n".join(steadiness(records, spec)))
        print()
        print("\n".join(histogram(records)))
        print()
    if traced and set(traced) <= set(untraced):
        print("### Per-layer metrics (traced runs)\n")
        print("\n".join(layers(traced, untraced, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
