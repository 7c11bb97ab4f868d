"""Shared pieces of the workloads: operation records, statistics, specs.

A workload module provides ``prepare(seed)``, ``run_pass(state, tracer)``,
``summarize(state, ops)``, ``check(state, passes)`` and
``outputs(state, passes)``, and may provide ``close(state)``; run.py
drives them.  Every operation is timed with
``perf_counter`` around the public library call it makes, so nothing under
``src/`` is instrumented.

Each untimed gap between two ops also runs a fixed reference kernel of
about a millisecond that uses nothing from the library.  An op keeps the
mean of the kernel's times just before and just after it, so run.py can
tell how fast the host ran while the op ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@dataclass
class Op:
    """One operation of a pass: its key, wall time, output, and the error
    message if it raised or exited non-zero."""
    key: str
    seconds: float
    output: object = None
    error: str | None = None
    ref: float | None = None    # mean reference kernel seconds in the op


@dataclass
class Pass:
    """One iteration of a workload's loop.

    ``pass_s`` is the end-to-end pass time the workload reports (the
    appendix part for ``distance``), ``wall`` the whole iteration, and
    ``items`` the work items it completed (classify calls, audits or CLI
    invocations).  ``latency`` holds the op times the latency percentiles
    are taken over.
    """
    ops: list[Op]
    pass_s: float
    wall: float
    items: int
    latency: list[float]
    traced: bool = False


def time_op(key, fn, post=None):
    """Run ``fn()`` as one op: its wall time and its output, or the error
    it raised.  ``post`` turns the output into what the op keeps, outside
    the timing."""
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # one failed op must not end the run
        return Op(key, perf_counter() - t0, error=repr(exc))
    seconds = perf_counter() - t0
    return Op(key, seconds, out if post is None else post(out))


def _ref_matrices(count=4, n=10, p=1009):
    state = 1
    mats = []
    for _ in range(count):
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                state = state * 48271 % 2147483647
                row.append(state % p)
            rows.append(row)
        mats.append(rows)
    return mats


REF_P = 1009
REF_NOMINAL_S = 0.001   # kernel time that corrected times are scaled to
SAMPLE_EVERY = 0.02     # seconds of CPU time between in-op kernel runs
REF_MATRICES = _ref_matrices()


def ref_kernel() -> int:
    """Fixed pure-Python work, about a millisecond: the ranks of four
    10x10 matrices mod 1009 by Gauss-Jordan elimination.  Its time tracks
    the host's speed; it must never change, or corrected times stop being
    comparable across commits."""
    p = REF_P
    total = 0
    for mat in REF_MATRICES:
        m = [row[:] for row in mat]
        n = len(m)
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], p - 2, p)
            row = [x * inv % p for x in m[r]]
            m[r] = row
            for i in range(n):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
            r += 1
        total += r
    return total


def ref_time(runs=1) -> float:
    """Mean seconds ``ref_kernel()`` takes now, over ``runs`` runs."""
    t0 = perf_counter()
    for _ in range(runs):
        ref_kernel()
    return (perf_counter() - t0) / runs


class KernelSampler:
    """While active, runs ``ref_kernel`` every ``every`` seconds of this
    process's CPU time, in this thread, and keeps its times in
    ``samples`` and the time the samples took in ``spent``.  The timer
    counts CPU time only, so it never fires while the process waits."""

    def __init__(self, every):
        self.every = every
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        ref_kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)


class HostSpeed:
    """Reference kernel times around, and during, a sequence of ops.

    ``around(run)`` runs ``run()`` (which returns an Op) between two kernel
    runs and sets the op's ``ref`` to the mean kernel time.  The kernel run
    after one op also serves as the one before the next.

    The host's speed changes within a long op, and two kernel runs at its
    ends would miss that, so the kernel also runs during the op: with
    ``sample_every`` set, a ``KernelSampler`` samples this process, and a
    ``child`` sampler's samples (from the process the op ran) join too.
    The time the samples took is taken off the op's time.
    """

    def __init__(self, sample_every=None):
        self.last = None
        self.sampler = KernelSampler(sample_every) if sample_every else None

    def around(self, run, child=None):
        before = ref_time() if self.last is None else self.last
        if self.sampler is None:
            op = run()
        else:
            with self.sampler:
                op = run()
        samples = [before]
        for sampler in (self.sampler, child):
            if sampler is not None:
                samples += sampler.samples
                op.seconds -= sampler.spent
        self.last = ref_time()
        samples.append(self.last)
        op.ref = sum(samples) / len(samples)
        return op


class PassRecorder:
    """Collects the ops of one in-process pass.

    Without a tracer, each op runs under ``HostSpeed``.  With a tracer,
    each op runs plainly (no kernel runs, which would slow it) and then
    traced, back to back.  Both runs see the same machine state, so the
    traced pass over the plain one measures the tracing overhead even on
    a host whose speed drifts.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.speed = HostSpeed(SAMPLE_EVERY) if tracer is None else None
        self.plain: list[Op] = []
        self.traced: list[Op] = []

    def op(self, key, fn, post=None):
        if self.tracer is None:
            self.plain.append(self.speed.around(
                lambda: time_op(key, fn, post)))
            return
        self.plain.append(time_op(key, fn, post))
        self.tracer.install()
        try:
            self.traced.append(time_op(key, fn, post))
        finally:
            self.tracer.uninstall()

    def passes(self, make):
        """[untraced pass] or [untraced, traced], built by make(ops)."""
        out = [make(self.plain)]
        if self.tracer is not None:
            out.append(make(self.traced))
            out[-1].traced = True
        return out


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty sample."""
    vals = sorted(values)
    return vals[max(1, math.ceil(p / 100 * len(vals))) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, or
    None when there are too few samples for any."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return None


def digest(obj) -> str:
    """Short stable hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def elt(e: int) -> str:
    """Element literal for a log-form exponent (-1 is zero)."""
    return "0" if e < 0 else f"g^{e}"


def random_spec(rng, field_str: str, q: int, k: int, l: int, n: int) -> dict:
    """A GrlSpec JSON dict that is valid by construction, built without
    field arithmetic so that huge fields need no tables here.

    alpha is n distinct elements (zero allowed), v is nonzero, and A is a
    row-permuted upper-triangular matrix with a nonzero diagonal, which is
    invertible over every field.
    """
    alpha = [elt(e) for e in rng.sample(range(-1, q - 1), n)]
    v = [elt(rng.randrange(q - 1)) for _ in range(n)]
    a = [["0"] * i + [elt(rng.randrange(q - 1))]
         + [elt(rng.randrange(-1, q - 1)) for _ in range(l - i - 1)]
         for i in range(l)]
    rng.shuffle(a)
    return {"field": field_str, "k": k, "l": l, "alpha": alpha, "v": v,
            "A": a}
