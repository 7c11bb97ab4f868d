"""Layer tracing from outside the library, by wrapping its public functions.

``install()`` replaces every public function of the eleven layer modules,
and ``FieldCtx.__init__`` (one call per field-table build), with a timing
wrapper.  ``from .linalg import rank`` binds a second name in the importing
module, so each wrapper is patched into every module that holds the
function, not only the one that defines it.  ``uninstall()`` restores the
originals, so untraced passes run the library exactly as shipped.

Each call is a span.  Spans are aggregated when they close, per function:
calls, inclusive seconds, and self seconds (inclusive minus the time of the
wrapped calls nested inside it).  Memory therefore stays constant however
many calls a pass makes.  There is one caller and no queue, so no span ever
waits; no waiting time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from bench import harness  # noqa: F401  (puts src/ on sys.path)

LAYERS = ("gf", "linalg", "grl", "hull", "families", "classify", "nongrs",
          "counting", "eaqecc", "appendix", "cli")

FIELD_BUILD = "gf.FieldCtx"


def _count_tuples(counts, args, kwargs, out):
    ctx, k = args[0], args[1]
    nonzero = kwargs.get("nonzero_only", args[3] if len(args) > 3 else False)
    counts["counting.oracle_tuples"] += (ctx.q - 1 if nonzero else ctx.q) ** k


def _count_decisive(counts, args, kwargs, out):
    counts["nongrs.decisive"] += out.verdict != "inconclusive"


# per-function hooks that derive counters from arguments or results
HOOKS = {
    "counting.brute_quadric_count": _count_tuples,
    "nongrs.nongrs_certificate": _count_decisive,
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_s = Counter()
        self.raised = Counter()     # "function:ExceptionName" -> count
        self.counts = Counter()     # counters from HOOKS
        self.samples = defaultdict(list)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --

    def _wrap(self, key, fn):
        stack, hook = self._stack, HOOKS.get(key)
        calls, total, self_s = self.calls, self.total, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[f"{key}:{type(exc).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[key] += 1
                total[key] += dt
                self_s[key] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"grlcodes.{name}") for name in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, mods):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        field_ctx = mods[0].FieldCtx
        self._patch(field_ctx, "__init__",
                    self._wrap(FIELD_BUILD, field_ctx.__init__))
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, name, wrappers[val])

    def _patch(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)

    # -- export / merge (for traced child processes) --

    def to_json(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_s), "raised": dict(self.raised),
                "counts": dict(self.counts)}

    def merge(self, data):
        self.calls.update(data["calls"])
        self.total.update(data["total"])
        self.self_s.update(data["self"])
        self.raised.update(data["raised"])
        self.counts.update(data["counts"])

    def copy(self):
        out = Tracer()
        out.merge(self.to_json())
        return out


def layer_metrics(setup: Tracer, run: Tracer, passes: int) -> dict:
    """Per-layer metrics for set-up plus one traced pass.

    ``setup`` holds what the in-process set-up recorded, ``run`` everything
    recorded by the end of the run; pass totals are divided by ``passes``.
    Returns {name: (value, unit)}.
    """
    def per(stat, key):
        before = getattr(setup, stat)[key]
        return before + (getattr(run, stat)[key] - before) / passes

    def tot(key):
        return per("total", key)

    def calls(key):
        return per("calls", key)

    attempts = calls("families.audit")
    recorded = attempts - sum(per("raised", k) for k in run.raised
                              if k.startswith("families.audit:"))
    certs = calls("nongrs.nongrs_certificate")
    startup = run.samples.get("cli.startup_s")
    out = {
        "gf.field_build_s": (tot(FIELD_BUILD), "s"),
        "gf.field_builds": (calls(FIELD_BUILD), "count"),
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "linalg.rank_s": (tot("linalg.rank"), "s"),
        "linalg.mat_mul_calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul_s": (tot("linalg.mat_mul"), "s"),
        "grl.build_generator_s": (tot("grl.build_generator"), "s"),
        "hull.hull_report_calls": (calls("hull.hull_report"), "count"),
        "hull.hull_report_s": (tot("hull.hull_report"), "s"),
        "families.predict_s": (tot("families.predict"), "s"),
        "families.audit_attempts": (attempts, "count"),
        "families.audit_yield": (recorded / attempts if attempts else 0.0,
                                 "ratio"),
        "classify.min_distance_s": (tot("classify.grl_min_distance"), "s"),
        "classify.dual_distance_s": (tot("classify.dual_min_distance"), "s"),
        "classify.budget_exceeded": (
            per("raised", "classify.classify:BudgetExceeded"), "count"),
        "nongrs.certificate_s": (tot("nongrs.nongrs_certificate"), "s"),
        "nongrs.decisive_ratio": (
            per("counts", "nongrs.decisive") / certs if certs else 0.0,
            "ratio"),
        "counting.oracle_s": (tot("counting.brute_quadric_count"), "s"),
        "counting.oracle_tuples": (per("counts", "counting.oracle_tuples"),
                                   "count"),
        "counting.formula_s": (tot("counting.count_nf")
                               + tot("counting.count_nf_star"), "s"),
        "eaqecc.derive_s": (tot("eaqecc.derive"), "s"),
        "appendix.load_rows_s": (tot("appendix.load_rows"), "s"),
        "cli.startup_s": (statistics.median(startup) if startup else 0.0,
                          "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum((per("self_s", k) for k in run.self_s
                 if k.startswith(layer + ".")), 0.0), "s")
    return out
