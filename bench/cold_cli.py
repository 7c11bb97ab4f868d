"""``cold-cli``: a seeded, fixed-size mix of command-line invocations, each
in a fresh ``PYTHONPATH=src python -m grlcodes.cli`` process.

Why: every process pays for the import, the Conway search and the
log/Zech tables, which the in-process workloads hide in set-up.  This is
also the only workload with the counting oracle, the ``report`` non-GRS
battery and the wide Schur-square ``rank``, and the only one where field
tables are written during the timed loop rather than only read.

A pass runs one ``report`` per large field (each field once), the
``count`` cases (10^5 to 10^6 enumerated tuples each), and one ``nongrs``
and one ``eaqecc`` per small field.  The seed draws the specs, the
``count`` targets and the order; which fields and cases run is fixed, so
a pass costs the same on every seed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from bench.harness import (ROOT, SRC, HostSpeed, KernelSampler, Op, Pass,
                           random_spec)

REPORT_FIELDS = ("13^4", "99991", "3^10", "7^6", "1019^2")
COUNTS = (("7", 7, False), ("13", 5, True))     # (q, k, --nonzero)
SMALL_FIELDS = ("3^2", "11", "13", "5^2", "17")
OP_TIMEOUT = 60
RSS_WHO = resource.RUSAGE_CHILDREN
WORKER = Path(__file__).resolve().parent / "cli_worker.py"
TIMED = Path(__file__).resolve().parent / "cli_timed.py"


@dataclass
class Invocation:
    key: str
    argv: list
    k: int | None = None
    l: int | None = None


@dataclass
class State:
    workdir: Path
    mix: list           # Invocation, in run order
    env: dict


def _q(field_str: str) -> int:
    p, _, m = field_str.partition("^")
    return int(p) ** int(m or 1)


def _spec_op(rng, workdir, command, field_str):
    q = _q(field_str)
    k = rng.randint(3, 4)
    n = rng.randint(k + 1, k + 3)
    spec = random_spec(rng, field_str, q, k, 2, n)
    path = workdir / f"{command}-{field_str.replace('^', '_')}.json"
    path.write_text(json.dumps(spec))
    return Invocation(f"{command} {field_str}", [command, "--spec", str(path)],
                      k=k, l=2)


def draw_mix(rng: random.Random, workdir: Path) -> list[Invocation]:
    mix = [_spec_op(rng, workdir, "report", f) for f in REPORT_FIELDS]
    for f in SMALL_FIELDS:
        mix.append(_spec_op(rng, workdir, "nongrs", f))
        mix.append(_spec_op(rng, workdir, "eaqecc", f))
    for q, k, nonzero in COUNTS:
        c = rng.choice(["0", f"g^{rng.randrange(int(q) - 1)}"])
        argv = ["count", "--q", q, "--k", str(k), "--c", c, "--json"]
        mix.append(Invocation(f"count q={q} k={k}",
                              argv + (["--nonzero"] if nonzero else [])))
    rng.shuffle(mix)
    return mix


def prepare(seed: int) -> State:
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # compile the package's byte code once, as an installed copy would have
    subprocess.run([sys.executable, "-c", "import grlcodes.cli"], cwd=ROOT,
                   env=env, check=True, timeout=OP_TIMEOUT)
    return State(workdir=workdir, mix=draw_mix(random.Random(seed), workdir),
                 env=env)


def close(state: State):
    shutil.rmtree(state.workdir, ignore_errors=True)
    try:
        state.workdir.parent.rmdir()
    except OSError:
        pass    # another run still uses it


def _spawn(state, key, cmd):
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=state.env,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return Op(key, perf_counter() - t0, error=f"timed out ({OP_TIMEOUT}s)")
    wall = perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Op(key, wall, proc.stdout,
                  error=f"exit {proc.returncode}: {tail[0]}")
    return Op(key, wall, proc.stdout)


def _cli(inv):
    return [sys.executable, "-m", "grlcodes.cli", *inv.argv]


def _plain(state, inv, child):
    """One untraced invocation, through ``cli_timed.py``; ``child`` gets
    the reference kernel samples the process took."""
    stats_path = state.workdir / "kernel.json"
    stats_path.unlink(missing_ok=True)
    op = _spawn(state, inv.key,
                [sys.executable, str(TIMED), str(stats_path), *inv.argv])
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        child.samples, child.spent = stats["samples"], stats["spent"]
    return op


def summarize(state: State, ops, traced=False) -> Pass:
    """A pass over ``ops``; each invocation is one item."""
    wall = sum(op.seconds for op in ops)
    return Pass(ops=ops, pass_s=wall, wall=wall, items=len(ops),
                latency=[op.seconds for op in ops], traced=traced)


def run_pass(state: State, tracer=None) -> list[Pass]:
    """One process per invocation, under ``HostSpeed``.  With a tracer,
    each invocation instead runs as ``python -m grlcodes.cli`` and then
    under the tracing worker right after, so the overhead compares the
    same processes in the same machine state."""
    plain, traced = [], []
    speed = HostSpeed()
    stats_path = state.workdir / "spans.json"
    for inv in state.mix:
        if tracer is None:
            child = KernelSampler(None)
            plain.append(speed.around(lambda: _plain(state, inv, child),
                                      child))
            continue
        plain.append(_spawn(state, inv.key, _cli(inv)))
        stats_path.unlink(missing_ok=True)
        op = _spawn(state, inv.key, [sys.executable, str(WORKER),
                                     str(stats_path), *inv.argv])
        traced.append(op)
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            tracer.merge(stats)
            tracer.samples["cli.startup_s"].append(
                op.seconds - stats["total"].get("cli.main", 0.0))
    if tracer is None:
        return [summarize(state, plain)]
    return [summarize(state, plain), summarize(state, traced, traced=True)]


def check(state: State, passes: list[Pass]) -> dict:
    """{(pass index, op key): problem} for every invocation that exited
    non-zero, printed no JSON, had ``count`` disagree with its oracle, had
    ``nongrs``/``report`` call a k > l code GRS, or printed other bytes
    than in pass 0."""
    by_key = {inv.key: inv for inv in state.mix}
    first = {op.key: op.output for op in passes[0].ops}
    fails = {}
    for pi, p in enumerate(passes):
        for op in p.ops:
            problem = _problem(by_key[op.key], op, first)
            if problem:
                fails[pi, op.key] = problem
    return fails


def _problem(inv, op, first):
    if op.error is not None:
        return op.error
    try:
        payload = json.loads(op.output)
    except ValueError:
        return "stdout is not JSON"
    command = inv.argv[0]
    if command == "count" and payload.get("agree") is not True:
        return (f"count {payload.get('count')} != "
                f"oracle {payload.get('oracle')}")
    verdict = {"nongrs": lambda: payload["certificate"]["verdict"],
               "report": lambda: payload["report"]["nongrs"]["verdict"]}
    if command in verdict and inv.k > inv.l and verdict[command]() == "grs":
        return f"k={inv.k} > l={inv.l} but {command} says grs"
    if op.output != first.get(op.key):
        return "output differs from pass 0"
    return None


def outputs(state: State, passes: list[Pass]):
    """What the digest covers: every invocation and its stdout."""
    return [[inv.argv[0], Path(inv.argv[2]).read_text()
             if inv.argv[1] == "--spec" else inv.argv, op.output]
            for inv, op in zip(state.mix, passes[0].ops)]
