"""Command-line front end: construct, audit, sweep, count, certify.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
Every input error reaches main() as a GrlError (or an OSError or a JSON
error from reading a file) and is reported there as one stderr line.
Outputs are deterministic for fixed inputs and seed: JSON keys sorted,
no timestamps in the payload; timing goes to stderr.

Each command imports the library modules it runs when it runs, so a
process pays only for its own command's imports; the stderr "[cmd] 1.23s"
line, timed by perf_counter, includes them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .gf import GrlError, field_from_str

# families.FAMILIES, spelt out so that building the parser imports no family
FAMILIES = ("E1", "E2", "E3", "E4", "H1", "H2", "H3", "H4")


def _manifest(args, ctx=None, seed=None):
    out = {"command": args.command, "version": __version__}
    if seed is not None:
        out["seed"] = seed
    if ctx is not None:
        out["field"] = ctx.field_str()
        out["modulus"] = list(ctx.modulus)
    return out


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_spec(path):
    from .grl import GrlSpec
    with open(path) as fh:
        return GrlSpec.from_json_dict(json.load(fh))


def cmd_report(args):
    from .classify import classify
    spec = _load_spec(args.spec)
    rep = classify(spec, with_nongrs=not args.no_nongrs)
    if args.csv:
        print("n,k,d,label,hull_e,hull_h")
        print(rep.csv_row())
        return 0
    payload = {"manifest": _manifest(args, spec.ctx),
               "report": rep.to_json_dict()}
    _emit(args, payload)
    return 0


def cmd_appendix(args):
    from .appendix import run_appendix
    results = run_appendix(args.which)
    ok = all(r.passed for r in results)
    if args.json:
        payload = {"manifest": _manifest(args),
                   "rows": [r.to_json_dict() for r in results],
                   "all_passed": ok}
        _emit(args, payload)
    else:
        for r in results:
            print(r.line())
            if not r.passed:
                print(f"    expected {r.expect}")
                print(f"    computed {r.computed}")
            if r.note:
                print(f"    note: {r.note}")
        print(f"{sum(r.passed for r in results)}/{len(results)} rows pass")
    return 0 if ok else 1


def _sweep_cell(args):
    """The one cell that --k and --l name, or None for the family corpus.
    A cell flag that the sweep would ignore is an input error."""
    from .families import FamilyParams
    fam, two_block = args.family, args.family in ("E3", "H3")
    if (args.k is None) != (args.l is None):
        raise GrlError("--k and --l go together: both for one cell, "
                       "neither for the family corpus")
    if args.k is None:
        if (args.delta, args.s, args.t) != (None, None, None):
            raise GrlError("--delta, --s and --t need a cell (--k and --l)")
        return None
    if (args.s, args.t) != (None, None) and not two_block:
        raise GrlError(f"--s and --t apply only to E3 and H3, not {fam}")
    if args.delta is not None and (two_block or fam == "E4"):
        raise GrlError(f"--delta does not apply to {fam}")
    if two_block and None in (args.s, args.t):
        raise GrlError("E3/H3 need --s and --t")
    delta = args.delta
    if delta is None and not two_block and fam != "E4":
        delta = 1
    return FamilyParams(family=fam, q=args.q, k=args.k, l=args.l,
                        delta=delta, s=args.s, t=args.t)


def cmd_sweep(args):
    import random
    from .families import audit_cell, sweep
    cell = _sweep_cell(args)
    if cell is not None:
        records = []  # audit_cell refuses a cell without a claim at once
        exhausted = audit_cell(cell, random.Random(args.seed), args.samples,
                               records, args.budget)
    else:
        records, exhausted = sweep(args.family, qs=(args.q,),
                                   samples=args.samples, seed=args.seed,
                                   budget=args.budget)
    if not records:
        raise GrlError(f"sweep of {args.family} at q = {args.q} audited nothing")
    ok = all(r.passed for r in records)
    payload = {"manifest": _manifest(args, seed=args.seed),
               "family": args.family,
               "audits": [r.to_json_dict() for r in records],
               "count": len(records),
               "budget_exhausted": exhausted,
               "all_passed": ok}
    _emit(args, payload)
    return 0 if ok else 1


def cmd_count(args):
    from .counting import brute_quadric_count, count_nf, count_nf_star
    ctx = field_from_str(args.q)
    c = ctx.parse(args.c)
    # the oracle first: its guards (k*q^2 <= 10^7, q^k < 10^4000) also
    # bound the closed forms (q ** (k - 1), the surd powers), so a huge k
    # exits 2 at once
    oracle = brute_quadric_count(ctx, args.k, c, nonzero_only=args.nonzero)
    formula = count_nf_star(ctx, args.k, c) if args.nonzero \
        else count_nf(ctx, args.k, c)
    agree = formula == oracle
    payload = {"manifest": _manifest(args, ctx),
               "k": args.k, "c": ctx.fmt(c), "nonzero_only": args.nonzero,
               "count": formula, "oracle": oracle, "agree": agree}
    if args.json:
        _emit(args, payload)
    else:
        print(formula)
        print(f"cross-check: formula {formula} vs enumeration {oracle} -> "
              f"{'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def cmd_nongrs(args):
    from .nongrs import nongrs_certificate
    spec = _load_spec(args.spec)
    cert = nongrs_certificate(spec)
    payload = {"manifest": _manifest(args, spec.ctx),
               "certificate": cert.to_json_dict()}
    _emit(args, payload)
    return 0


def cmd_eaqecc(args):
    from .classify import classify
    spec = _load_spec(args.spec)
    rep = classify(spec)
    if args.csv:
        print("n,kq,d,c,mds")
        for pair in rep.eaqecc.values():
            for t in pair:
                print(t.csv_row())
        return 0
    payload = {"manifest": _manifest(args, spec.ctx),
               "eaqecc": rep.to_json_dict()["eaqecc"]}
    _emit(args, payload)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="grlcodes",
        description="Exact GRL-code toolkit: LCD/hull analysis, "
                    "MDS/NMDS classification, non-GRS certificates, "
                    "EAQECC parameters.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full report for a GrlSpec JSON file")
    p.add_argument("--spec", required=True)
    p.add_argument("--no-nongrs", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("appendix", help="run the built-in reference examples")
    p.add_argument("which", choices=["A", "B", "all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_appendix)

    p = sub.add_parser("sweep", help="audit a family against its predictions")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("count", help="quadric solution counts with oracle check")
    p.add_argument("--q", "--field", dest="q", required=True,
                   help="field spec like 5 or 3^2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", required=True, help="element: 0, 1, or g^e")
    p.add_argument("--nonzero", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("nongrs", help="non-GRS certificate for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nongrs)

    p = sub.add_parser("eaqecc", help="EAQECC parameter tuples for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eaqecc)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        rc = args.func(args)
    except (GrlError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[{args.command}] {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
