"""The k3fm benchmark: one closed-loop workload per run, checked and drift-cancelled.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and bench/README.md): rank20-isometry,
reflexive-sweep, cli-session.  One caller runs one operation at a time,
in whole rounds of the workload's cycle, until S seconds have passed and
at least MIN_OPS operations are done.  After each operation the run times
a sample of the workload's reference operation: fixed, stdlib-only work
with the same cost structure.  Every latency is divided by the mean of the
samples just before and just after it, so a machine that speeds up or
slows down during a run changes numerator and denominator alike.  Checks
of each result run outside the timed region.

--trace 1 wraps k3fm's public functions from outside the program and
reports per-layer call counts and self times instead of the end-to-end
metrics.  The last line of stdout is the result as one JSON object; the
line before it gives the raw reference time and other figures that
convert the metrics back to seconds.  Details of every run are written
under bench/out/.
"""

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100  # p90 then has at least ten samples beyond it
HARD_STOP_S = 140  # stop after the current round, whatever the count, to end within 180 s
SETUP_PROBES = 5
WORKLOADS = {
    "rank20-isometry": ("rank20", "Rank20Isometry"),
    "reflexive-sweep": ("sweep", "ReflexiveSweep"),
    "cli-session": ("cli_session", "CliSession"),
}


def import_k3fm():
    """Import k3fm from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = False
    import k3fm

    if Path(k3fm.__file__).resolve().parent != (src / "k3fm").resolve():
        raise ImportError(f"k3fm was imported from {k3fm.__file__}, not from {src}")
    return k3fm


def make_workload(name: str, seed: int, workdir: Path):
    """Build the workload's inputs from the seed and warm it up."""
    k3fm = import_k3fm()
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(k3fm, random.Random(f"{name}:{seed}"), workdir)
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Median set-up time of fresh processes: start, import, inputs, warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe"]
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit status {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def measure(workload, seconds: float, traced: bool):
    """Closed loop over whole rounds; returns per-op samples and check outcomes."""
    samples = []  # (op ns, reference ns before it, reference ns after it, per-layer stats or None)
    attempted = failed = 0
    problems = []
    if traced:
        workload.start_tracing()
    start = perf_counter()
    ref_ns = workload.reference()
    while True:
        for case in workload.round():
            if traced:
                workload.take_layers()  # drop what input generation did
            t0 = perf_counter_ns()
            try:
                result = workload.run(case)
            except Exception as exc:  # a crash is a wrong result; the check reports it
                result = exc
            op_ns = perf_counter_ns() - t0
            layers = workload.take_layers() if traced else None
            before, ref_ns = ref_ns, workload.reference()
            samples.append((op_ns, before, ref_ns, layers))
            attempted += 1
            try:
                if not workload.check(case, result):
                    failed += 1
            except Exception as exc:
                problems.append(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if (elapsed >= seconds and attempted >= MIN_OPS) or elapsed >= HARD_STOP_S:
            break
    return samples, attempted, failed, problems, workload.peak_rss_kib(), elapsed


def summarize(samples, rss_kib, setup_s, spec, traced):
    ops = [s[0] for s in samples]
    refs = [s[2] for s in samples]
    # Each operation is bracketed by two reference samples; the machine's
    # speed flips between states within a second, so only these track it.
    local = [(s[1] + s[2]) / 2 for s in samples]
    norm = [op / ref for op, ref in zip(ops, local)]
    if traced:
        values = {}
        for layer in samples[0][3]:
            values[f"{layer}.calls"] = sum(s[3][layer][0] for s in samples) / len(samples)
            values[f"{layer}.self_ref"] = sum(s[3][layer][1] / ref for s, ref in zip(samples, local)) / len(samples)
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_ref": statistics.median(norm),
            "op_p90_ref": statistics.quantiles(norm, n=10, method="inclusive")[8],
            "ops_per_kref": 1000 * len(norm) / sum(norm),
            "peak_rss_mb": rss_kib / 1024,
        }
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {
        "ref_ms_median": statistics.median(refs) / 1e6,
        "ref_ms_quartiles": [q / 1e6 for q in statistics.quantiles(refs, n=4, method="inclusive")],
        "op_ms_p50": statistics.median(ops) / 1e6,
        "op_ms_p90": statistics.quantiles(ops, n=10, method="inclusive")[8] / 1e6,
        "ops_per_s": len(ops) / (sum(ops) / 1e9),
        "op_p50_ref": statistics.median(norm),
        "ops": len(norm),
    }
    return metrics, info, norm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_s = None if traced else probe_setup(args)
        samples, attempted, failed, problems, rss_kib, elapsed = measure(workload, args.seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, info, norm = summarize(samples, rss_kib, setup_s, spec, traced)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, elapsed_s=elapsed,
                problems=problems[:5])
    record = {"info": info, "metrics": metrics, "op_ref": norm,
              "op_ms": [s[0] / 1e6 for s in samples], "ref_ms": [s[2] / 1e6 for s in samples]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (OUT / name).write_text(json.dumps(record))
    for problem in problems[:5]:
        print(problem, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
