"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {distance,sweep,cold-cli} \\
        --seed N --seconds S --trace {0,1}

The workload runs whole passes in a closed loop with one caller, starting
another pass only while the last one still fits in ``--seconds`` (at least
one always runs).  Correctness gates run after the timed loop.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The end-to-end times are corrected for the host's speed (see
``corrected_ops``); the uncorrected pass times are printed too.
"""

from time import perf_counter

T0 = perf_counter()     # set-up time counts from here: imports included

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import (REF_NOMINAL_S, SRC, digest,  # noqa: E402
                           percentile, ref_time, tail_percentile)
from bench.tracer import Tracer, layer_metrics  # noqa: E402

WORKLOADS = {"distance": "bench.distance", "sweep": "bench.sweep",
             "cold-cli": "bench.cold_cli"}
SETUP_PROBES = 8        # fresh processes that repeat the set-up
SETUP_REF_RUNS = 3      # kernel runs that time the host after a set-up
PROBE_TIMEOUT = 60
MAX_REPORTED_FAILURES = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe_setup(workload, seed):
    """(set-up seconds, reference kernel seconds right after it) of a fresh
    process running this workload's set-up."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
    setup, ref = proc.stdout.split()[-2:]
    return float(setup), float(ref)


def timed_loop(work, state, seconds, tracer):
    passes = []
    start = perf_counter()
    while True:
        new = work.run_pass(state, tracer)
        passes += new
        if perf_counter() - start + sum(p.wall for p in new) > seconds:
            return passes


def corrected_ops(passes):
    """The ops of a pass, each with its time corrected for host speed.

    The host's speed changes by up to about 1.6 times, in stretches from
    well under a second to longer than a run.  Each op's time is divided
    by the reference kernel time measured around and during it, and the
    median of that ratio over the passes, times ``REF_NOMINAL_S``, is the
    op's time on a host that runs the kernel in ``REF_NOMINAL_S``.
    """
    ratios = defaultdict(list)
    for p in passes:
        for op in p.ops:
            ratios[op.key].append(op.seconds / op.ref)
    return [replace(op, seconds=statistics.median(ratios[op.key])
                    * REF_NOMINAL_S) for op in passes[0].ops]


def end_to_end(work, state, passes, setups):
    at_speed = work.summarize(state, corrected_ops(passes))
    rss_kb = resource.getrusage(
        getattr(work, "RSS_WHO", resource.RUSAGE_SELF)).ru_maxrss
    return {
        "setup_s": (statistics.median(s / ref for s, ref in setups)
                    * REF_NOMINAL_S, "s"),
        "pass_s": (at_speed.pass_s, "s"),
        "op_p50_s": (percentile(at_speed.latency, 50), "s"),
        "op_p90_s": (percentile(at_speed.latency, 90), "s"),
        "items_per_s": (at_speed.items / at_speed.wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def run(workload, seed, seconds, trace, started=None):
    """Run a workload; return (result dict, printable report lines)."""
    started = perf_counter() if started is None else started
    work = importlib.import_module(WORKLOADS[workload])
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        state = work.prepare(seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = perf_counter() - started
    setup_ref = ref_time(SETUP_REF_RUNS)
    try:
        setup_trace = tracer.copy() if tracer is not None else None
        passes = timed_loop(work, state, seconds, tracer)
        if tracer is None:
            metrics = end_to_end(work, state, passes, [(setup_s, setup_ref)]
                                 + [probe_setup(workload, seed)
                                    for _ in range(SETUP_PROBES)])
        else:
            metrics = layer_metrics(setup_trace, tracer,
                                    sum(p.traced for p in passes))
            plain = sum(p.wall for p in passes if not p.traced)
            traced = sum(p.wall for p in passes if p.traced)
            metrics["trace.overhead_frac"] = (traced / plain - 1, "ratio")
        fails = work.check(state, passes)
        out_digest = digest(work.outputs(state, passes))
    finally:
        close = getattr(work, "close", None)
        if close is not None:
            close(state)
    attempted = sum(len(p.ops) for p in passes)
    lines = [f"workload {workload} seed {seed} trace {trace}: "
             f"{len(passes)} passes, {attempted} ops, {len(fails)} failed, "
             f"ops_failed_frac {len(fails) / attempted:.4g}",
             f"digest {out_digest}"]
    if not trace:
        lat = [x for p in passes for x in p.latency]
        n = len(lat)
        tail = tail_percentile(n)
        lines.append(f"op latency: {n} samples; tail p{tail} = "
                     f"{percentile(lat, tail):.6g} s" if tail else
                     f"op latency: {n} samples; too few for a tail "
                     f"percentile with 10 samples beyond it")
    if not trace:
        refs = sorted(op.ref for p in passes for op in p.ops)
        lines.append("uncorrected pass_s: " + " ".join(
            f"{p.pass_s:.4g}" for p in passes) + f"; set-up {setup_s:.4g} s; "
            f"kernel min {refs[0]:.4g} median {refs[len(refs) // 2]:.4g} s")
    lines += [f"  {name:28s} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    for (pi, key), problem in sorted(fails.items())[:MAX_REPORTED_FAILURES]:
        lines.append(f"FAILED pass {pi} {key}: {problem}")
    result = {"correct": not fails, "attempted": attempted,
              "failed": len(fails),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "grlcodes" / "__init__.py").is_file():
        print(f"error: no grlcodes sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        work = importlib.import_module(WORKLOADS[args.workload])
        state = work.prepare(args.seed)
        elapsed = perf_counter() - T0
        ref = ref_time(SETUP_REF_RUNS)
        close = getattr(work, "close", None)
        if close is not None:
            close(state)
        print(repr(elapsed), repr(ref))
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace,
                        started=T0)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
