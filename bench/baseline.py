"""Run the benchmark on several seeds and record medians and spreads.

Usage (from the repository root):

    python3 bench/baseline.py --out bench/BENCH_baseline.json \\
        --workloads distance sweep cold-cli --seeds 1 2 3 4 5 6 7 8 9 10

Each seed is one ``run.py --trace 0`` run of ``run_seconds`` from
BENCHMARK.json; one ``--trace 1`` run per workload (first seed) adds the
per-layer numbers.  Per metric the file keeps every value, the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(interquartile range over median), and per run its wall time from spawn
to exit.  Workloads already in ``--out`` that are not re-run are kept, so
workloads can be recorded one at a time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def machine():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def run_once(workload, seed, seconds, trace):
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(l.split()[1] for l in lines
                            if l.startswith("digest "))
    result["wall_s"] = perf_counter() - t0
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out_path = Path(args.out)
    data = json.loads(out_path.read_text()) if out_path.exists() else {}
    data.update({"machine": machine(), "run_seconds": seconds})
    data.setdefault("workloads", {})
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(w, seed, seconds, 0)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                file=sys.stderr, flush=True)
            runs.append(r)
        entry = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "digests": {str(s): r["digest"]
                        for s, r in zip(args.seeds, runs)},
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                      for r in runs])
                for m in bench["end_to_end"]},
        }
        t = run_once(w, args.seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": args.seeds[0], "wall_s": t["wall_s"],
                              "metrics": t["metrics"]}
        data["workloads"][w] = entry
        out_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        for name, s in entry["end_to_end"].items():
            print(f"{w} {name}: median {s['median']:.5g} "
                  f"spread {s['spread']:.4f}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
