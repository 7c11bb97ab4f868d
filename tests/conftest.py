import pytest

from grlcodes.appendix import run_appendix
from grlcodes.gf import ZERO
from grlcodes.hull import hull_report, point_gram
from grlcodes.linalg import Matrix, rank, rref


@pytest.fixture(scope="session")
def appendix_results():
    """Every appendix row classified once per test session, by row id.

    Classifying the appendix takes seconds, so the tests that only read
    its reports share one run; treat the results as read-only."""
    results = {r.id: r for r in run_appendix("all")}
    assert len(results) == 33
    return results


def assert_witness(g, cert):
    """Re-check a non-GRS certificate's witness from g alone: a `grs`
    witness by rebuilding GRS_k(points, v) and comparing RREFs, a `non_grs`
    one by recomputing its length, entry, minor or proportional pair."""
    ctx, k, nn = g.ctx, g.rows, g.cols
    ev = cert.evidence
    assert cert.method == "GeneralizedCauchy"
    if cert.verdict == "grs":
        pts = [ctx.parse(s) for s in ev["points"]]
        v = [ctx.parse(s) for s in ev["v"]]
        assert len(set(pts)) == nn == len(v) and ZERO not in v
        grs = Matrix(ctx, [[ctx.mul(v[j], ctx.pow(pts[j], r))
                            for j in range(nn)] for r in range(k)])
        assert rref(grs)[0] == rref(g)[0]
        return
    assert cert.verdict == "non_grs"
    if ev["reason"] == "length":
        assert ev == {"reason": "length", "length": nn, "q": ctx.q}
        assert nn > ctx.q
        return
    r, pivots = rref(g)
    rest = [j for j in range(nn) if j not in pivots]

    def b(row, col):   # the entry of B in the row with pivot column `row`
        assert row in pivots and col in rest
        return r.data[pivots.index(row)][col]

    rows, cols = ev.get("rows"), ev.get("columns")
    if ev["reason"] == "zero entry":
        assert b(ev["row"], ev["column"]) == ZERO
    elif ev["reason"] == "proportional rows":
        # two rows of B of rank 1 over >= 2 columns: a vanishing 2x2 minor
        assert len(set(rows)) == 2 and len(rest) >= 2
        assert rank(Matrix(ctx, [[b(i, j) for j in rest] for i in rows])) == 1
    elif ev["reason"] == "proportional columns":
        assert len(set(cols)) == 2 and k >= 2
        pair = [[b(i, j) for j in cols] for i in pivots]
        assert rank(Matrix(ctx, pair)) == 1
    else:
        assert ev["reason"] == "3x3 minor"
        minor = [[ctx.inv(b(i, j)) for j in cols] for i in rows]
        assert len(set(rows)) == len(set(cols)) == 3
        assert rank(Matrix(ctx, minor)) == 3


@pytest.fixture(scope="session")
def witness():
    """assert_witness, for tests in any module."""
    return assert_witness


def spec_hull(spec, inner):
    """The hull report of a whole spec: its PointGram plus its A."""
    return hull_report(point_gram(spec, inner), spec.a)
