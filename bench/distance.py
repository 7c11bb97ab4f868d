"""``distance``: the 33 appendix rows plus a seeded batch of random specs.

Why: ``grl_min_distance`` and ``dual_min_distance`` take nearly all the
time here, while field builds, hulls and families are nearly idle, so a
distance-engine change shows here and should not move ``sweep``.

Set-up loads the rows with ``appendix.load_rows("all")``; each pass runs
every row, which is ``appendix.run_appendix("all")`` with each row's
``classify`` timed on its own.  ``pass_s`` is that appendix part, and the
latency percentiles are over these fixed rows.  The pass
then calls ``classify.classify`` on the random batch: one spec per field
and shape (l, k, n) below, with the seed drawing only the entries (alpha,
v and A).  Fixing the shapes keeps a pass's cost the same on every seed,
so seeds change what is computed but not how much.  The length N = n + l
is at most 16, so the parity-check DFS oracles in the gate stay cheap,
and no spec costs more than the heaviest appendix row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bench.harness import Pass, PassRecorder, random_spec
from grlcodes import appendix, classify as classify_mod
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.hull import EUCLIDEAN, dual_generator

RANDOM_FIELDS = {25: "5^2", 49: "7^2", 81: "3^4", 121: "11^2", 169: "13^2"}
SHAPES = ((2, 5, 14), (2, 7, 14), (3, 4, 13), (3, 6, 13), (4, 5, 12),
          (4, 7, 12))     # (l, k, n)


@dataclass
class State:
    rows: list          # appendix.AppendixRow
    expect: dict        # appendix row id -> expected computed dict
    specs: list         # GrlSpec of the random batch
    spec_dicts: list    # their JSON form, for the digest


def draw_specs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_spec(rng, field_str, q, k, l, n)
            for q, field_str in sorted(RANDOM_FIELDS.items())
            for l, k, n in SHAPES]


def prepare(seed: int) -> State:
    # load_rows and GrlSpec.from_json_dict build (and cache) every field
    # the passes use, so field builds stay out of the timed loop
    rows = appendix.load_rows("all")
    dicts = draw_specs(seed)
    return State(rows=rows, expect={row.id: row.expect for row in rows},
                 specs=[GrlSpec.from_json_dict(d) for d in dicts],
                 spec_dicts=dicts)


def _summary(rep):
    return {"d": rep.d, "d_dual": rep.d_dual, "label": rep.label,
            "hull_e": rep.hull_e.hull_dim,
            "hull_h": None if rep.hull_h is None else rep.hull_h.hull_dim}


def run_pass(state: State, tracer=None) -> list[Pass]:
    rec = PassRecorder(tracer)
    for row in state.rows:
        rec.op(row.id, lambda row=row: row.run().computed)
    for i, spec in enumerate(state.specs):
        rec.op(f"random[{i}]",
               lambda spec=spec: _summary(classify_mod.classify(spec)))
    return rec.passes(lambda ops: summarize(state, ops))


def summarize(state: State, ops) -> Pass:
    """A pass over ``ops``: ``pass_s`` and the latencies cover the
    appendix rows, ``items`` every classify call."""
    rows = [op.seconds for op in ops if op.key in state.expect]
    return Pass(ops=ops, pass_s=sum(rows),
                wall=sum(op.seconds for op in ops), items=len(ops),
                latency=rows)


def oracle(spec: GrlSpec) -> dict:
    """d and d_dual from the parity-check DFS on the generator and on the
    dual generator, independent of the engines classify uses."""
    g = build_generator(spec)
    return {"d": classify_mod.min_distance(g),
            "d_dual": classify_mod.min_distance(dual_generator(g, EUCLIDEAN))}


def check(state: State, passes: list[Pass]) -> dict:
    """{(pass index, op key): problem} for every op that raised, whose row
    missed its ``expect``, whose random spec disagrees with the oracles or
    breaks the MDS duality rule, or whose output differs from pass 0."""
    truth = [oracle(spec) for spec in state.specs]
    first = {op.key: op.output for op in passes[0].ops}
    fails = {}
    for pi, p in enumerate(passes):
        for op in p.ops:
            problem = _problem(state, truth, first, op)
            if problem:
                fails[pi, op.key] = problem
    return fails


def _problem(state, truth, first, op):
    if op.error is not None:
        return f"raised {op.error}"
    out = op.output
    if op.key in state.expect:
        if out != state.expect[op.key]:
            return f"computed {out}, expected {state.expect[op.key]}"
    else:
        i = int(op.key[len("random["):-1])
        spec = state.specs[i]
        for name in ("d", "d_dual"):
            if out[name] != truth[i][name]:
                return f"{name} {out[name]} != oracle {truth[i][name]}"
        mds = out["d"] == spec.length - spec.k + 1
        if mds and out["d_dual"] != spec.k + 1:
            return f"MDS but d_dual {out['d_dual']} != k+1 = {spec.k + 1}"
    if out != first.get(op.key):
        return "output differs from pass 0"
    return None


def outputs(state: State, passes: list[Pass]):
    """What the digest covers: the specs and the first pass's outputs."""
    return {"specs": state.spec_dicts,
            "ops": [[op.key, op.output] for op in passes[0].ops]}
