"""``sweep``: ``families.sweep`` over all eight families on the standard
corpus at ``samples=5``.

Why: thousands of small hull decisions and no distance search, so most of
the time is ``hull.hull_report`` (the Gram ``mat_mul`` and ``rank``).  A
``linalg`` or ``hull`` change shows here; a distance-only change must not.

Each op is one ``sweep(family, qs=(q,), k_range=(k, k))`` call, one per
family, field and dimension of the corpus, so the pass covers exactly the
standard corpus.  Ops this small give the latency percentiles about 160
samples a pass, spread evenly enough that no percentile sits in a gap
between a few heavy calls and the rest.  Each call gets its own seed,
drawn once from the run's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bench.harness import Pass, PassRecorder, digest
from grlcodes import families
from grlcodes.hull import EUCLIDEAN, HERMITIAN, hull_dim_bruteforce
from grlcodes.grl import build_generator
from grlcodes.linalg import Matrix

E_QS = (25, 49, 81, 121, 169)
H_QS = (3, 5, 9, 11, 13)
FIELDS = [(fam, q) for fam in families.FAMILIES
          for q in (E_QS if fam in families.EUCLIDEAN_FAMILIES else H_QS)]
SAMPLES = 5
HULL_CHECKS = 24


@dataclass
class State:
    seed: int
    cells: list         # (family, q, k, seed of that sweep call)
    first: dict | None = None   # op key -> JSON output of the first pass


def prepare(seed: int) -> State:
    rng = random.Random(seed)
    cells = []
    for fam, q in FIELDS:
        # corpus_cells builds and caches the field
        ks = sorted({k for _, k, _, _ in families.corpus_cells(fam, (q,))})
        cells += [(fam, q, k, rng.randrange(2 ** 31)) for k in ks]
    return State(seed=seed, cells=cells)


def run_pass(state: State, tracer=None) -> list[Pass]:
    """One sweep call per corpus field.  Only the first pass keeps its
    audit records; an op keeps a digest and the failed audits, so memory
    does not grow with the number of passes."""
    rec = PassRecorder(tracer)
    full = {}
    for fam, q, k, s in state.cells:
        key = f"{fam}/q={q}/k={k}"

        def keep(result, key=key):
            records, exhausted = result
            out = {"audits": [r.to_json_dict() for r in records],
                   "budget_exhausted": exhausted}
            if state.first is None:
                full[key] = out
            return {"digest": digest(out), "budget_exhausted": exhausted,
                    "audits": len(records),
                    "failed": [i for i, r in enumerate(records)
                               if not r.passed]}
        rec.op(key, lambda fam=fam, q=q, k=k, s=s: families.sweep(
            fam, qs=(q,), k_range=(k, k), samples=SAMPLES, seed=s),
            post=keep)
    if state.first is None:
        state.first = full
    return rec.passes(lambda ops: summarize(state, ops))


def summarize(state: State, ops) -> Pass:
    """A pass over ``ops``; its items are the audits they recorded."""
    busy = sum(op.seconds for op in ops)
    return Pass(ops=ops, pass_s=busy, wall=busy,
                items=sum(op.output["audits"] for op in ops
                          if op.error is None),
                latency=[op.seconds for op in ops])


def bruteforce_hull(params: dict) -> int:
    """Hull dimension of an audited code by the stacked-generator rank
    identity, independent of the Gram shortcut the audit used."""
    fam, q = params["family"], params["q"]
    ctx = families.family_ctx(fam, q)
    shifts = {k: params[k] for k in ("delta", "s", "t") if k in params}
    fp = families.FamilyParams(family=fam, q=q, k=params["k"], l=params["l"],
                               a=Matrix.from_strs(ctx, params["A"]), **shifts)
    inner = EUCLIDEAN if fam in families.EUCLIDEAN_FAMILIES else HERMITIAN
    return hull_dim_bruteforce(build_generator(families.build_spec(fp)),
                               inner)


def check(state: State, passes: list[Pass]) -> dict:
    """{(pass index, op key): problem} for every sweep call that raised,
    recorded a failed audit, ran out of budget, whose output differs from
    the first pass, or (on a seeded sample of audits) whose hull disagrees
    with ``hull_dim_bruteforce``."""
    rng = random.Random(state.seed)
    pool = [(key, i) for key, out in sorted(state.first.items())
            for i in range(len(out["audits"]))]
    wrong_hull = {}
    for key, i in rng.sample(pool, min(HULL_CHECKS, len(pool))):
        rec = state.first[key]["audits"][i]
        brute = bruteforce_hull(rec["params"])
        if brute != rec["computed_hull"]:
            wrong_hull[key] = (f"audit {i}: hull {rec['computed_hull']} "
                               f"!= brute force {brute}")
    first = {key: digest(out) for key, out in state.first.items()}
    fails = {}
    for pi, p in enumerate(passes):
        for op in p.ops:
            if op.error is not None:
                fails[pi, op.key] = f"raised {op.error}"
            elif op.output["failed"]:
                fails[pi, op.key] = f"audits {op.output['failed']} failed"
            elif op.output["budget_exhausted"]:
                fails[pi, op.key] = "budget exhausted"
            elif op.key in wrong_hull:
                fails[pi, op.key] = wrong_hull[op.key]
            elif op.output["digest"] != first.get(op.key):
                fails[pi, op.key] = "output differs from the first pass"
    return fails


def outputs(state: State, passes: list[Pass]):
    """What the digest covers: the first pass's audit records."""
    return state.first
