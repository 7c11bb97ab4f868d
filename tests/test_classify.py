import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlcodes import classify as classify_mod, linalg
from grlcodes.appendix import load_rows
from grlcodes.classify import (BudgetExceeded, _extend, _largest_deficient,
                               _Levels, _rank_one_evaluation_targets,
                               _rank_one_root_targets, classify,
                               dual_min_distance, grl_min_distance,
                               min_distance)
from grlcodes.gf import ZERO, FieldCtx, TooLarge, field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.hull import EUCLIDEAN, dual_generator
from grlcodes.linalg import Matrix, rank, rank_rows
from grlcodes.oracles import elementary_symmetric, enum_min_distance


def unit_spec(ctx, alpha, a_rows, k):
    a = Matrix.from_strs(ctx, a_rows)
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha), a=a, k=k)


A22 = [["g^1", "g^2"], ["g^3", "g^5"]]


def example_a1_spec():
    ctx = field_new(3, 4)
    return unit_spec(ctx, [ctx.element(16 * i + 2) for i in range(1, 6)], A22, 5)


def example_a2_spec():
    ctx = field_new(5, 2)
    a = [["g^0", "g^1", "g^2", "g^1"],
         ["g^1", "g^3", "g^5", "g^7"],
         ["g^1", "g^6", "g^10", "g^14"],
         ["g^3", "g^9", "g^15", "g^21"]]
    return unit_spec(ctx, [ctx.element(3 * i + 1) for i in range(1, 9)], a, 8)


def random_small_spec(rng, ctx, k=None, l=None, n=None):
    els = list(ctx.nonzero_elements())
    k = rng.randint(2, 4) if k is None else k
    n = rng.randint(k, min(ctx.q, k + 3)) if n is None else n
    l = rng.randint(2, k) if l is None else l
    alpha = rng.sample(list(ctx.elements()), n)
    v = [rng.choice(els) for _ in range(n)]
    while True:
        a = Matrix(ctx, [[rng.choice([ZERO] + els) for _ in range(l)]
                         for _ in range(l)])
        if rank(a) == l:
            return GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)


def test_min_distance_repetition_code():
    ctx = field_new(5)
    g = Matrix(ctx, [[0, 0, 0, 0]])
    assert min_distance(g) == 4
    assert enum_min_distance(g) == 4


def test_min_distance_example_a1():
    spec = example_a1_spec()
    g = build_generator(spec)
    assert min_distance(g) == 3
    assert grl_min_distance(spec) == 3


def test_distance_methods_agree_with_enumeration():
    rng = random.Random(2025)
    for p, m in ((5, 1), (7, 1), (3, 2), (13, 1)):
        ctx = field_new(p, m)
        for _ in range(12):
            spec = random_small_spec(rng, ctx)
            g = build_generator(spec)
            d_enum = enum_min_distance(g, limit=30000)
            assert grl_min_distance(spec) == d_enum
            assert min_distance(g) == d_enum


@st.composite
def small_specs(draw):
    """2 <= l <= k <= n <= q <= 27; alpha holds 0 in at least half the
    draws; v and A are random."""
    p, m = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (13, 1), (5, 2), (3, 3)]))
    ctx = field_new(p, m)
    k = draw(st.integers(2, min(5, ctx.q)))
    l = draw(st.integers(2, k))
    n = draw(st.integers(k, min(ctx.q, k + 4)))
    alpha = draw(st.permutations(list(ctx.elements())))[:n]
    if draw(st.booleans()) and ZERO not in alpha:
        alpha[draw(st.integers(0, n - 1))] = ZERO
    v = draw(st.lists(st.sampled_from(list(ctx.nonzero_elements())),
                      min_size=n, max_size=n))
    row = st.lists(st.sampled_from(list(ctx.elements())), min_size=l,
                   max_size=l)
    a = draw(st.lists(row, min_size=l, max_size=l)
             .map(lambda rows: Matrix(ctx, rows))
             .filter(lambda a: rank(a) == l))
    return GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)


@settings(max_examples=400, deadline=None)
@given(small_specs())
def test_root_subset_search_matches_column_search(spec):
    """Both signature engines, standalone with their own levels, agree
    with the column search on G and on a parity-check matrix and with
    classify, whose d-dual reads the levels its d built; an MDS code has
    an MDS dual."""
    g = build_generator(spec)
    d, dd = grl_min_distance(spec), dual_min_distance(spec)
    assert d == min_distance(g)
    assert dd == min_distance(dual_generator(g, EUCLIDEAN))
    rep = classify(spec)
    assert (rep.d, rep.d_dual) == (d, dd)
    if d == spec.length - spec.k + 1:
        assert dd == spec.k + 1


def test_engines_match_column_search_on_appendix():
    """d-dual against the column search on a parity-check matrix on every
    appendix row, and d on the rows with n <= 14 (the column search on a
    longer row takes from seconds to far beyond a test's time)."""
    checked = 0
    for row in load_rows("all"):
        g = build_generator(row.spec)
        assert (dual_min_distance(row.spec)
                == min_distance(dual_generator(g, EUCLIDEAN))), row.id
        if row.spec.n <= 14:
            assert grl_min_distance(row.spec) == min_distance(g), row.id
            checked += 1
    assert checked == 27


def test_classify_builds_each_signature_level_once(monkeypatch):
    """classify builds each signature level at most once, and d-dual reads
    the levels d kept.  Both rank-1 lookups read the level below their
    own, so a level is built only when it is read one signature at a
    time.  On the 23 l = 2 rows no level is scanned and level k - 1 is
    never built: k - 2 calls of _extend.  On the 10 rows with l >= 3 the
    d lookup misses and d scans level k - 1: k - 1 calls, whether or not
    d-dual is searched.  Standalone, d makes the same calls; d-dual builds
    the level k - l its lookup reads for l = 2, and for l >= 3 up to the
    last level it reads, min(d-dual - 2, k - 1) (k - l on a hit)."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _extend(*args)

    monkeypatch.setattr(classify_mod, "_extend", counting)
    rows = {True: 0, False: 0}
    searched = 0
    for row in load_rows("all"):
        spec = row.spec
        k, l = spec.k, spec.l
        built = k - 2 if l == 2 else k - 1
        calls.clear()
        rep = classify(spec)
        assert len(calls) == built, row.id
        calls.clear()
        assert grl_min_distance(spec) == rep.d
        assert len(calls) == built, row.id
        calls.clear()
        assert dual_min_distance(spec) == rep.d_dual
        dual_built = k - 2 if l == 2 else min(rep.d_dual - 2, k - 1)
        assert len(calls) == dual_built, row.id
        rows[l == 2] += 1
        searched += rep.label != "MDS"
    assert rows == {True: 23, False: 10} and searched == 29


def test_classify_decides_rank_one_and_two_by_counting(monkeypatch,
                                                        appendix_results):
    """On the 33 appendix rows, classify counts zero scalars for rank 1 at
    the call site, so _largest_deficient never sees r = 1, and its r = 2
    count of directions makes no elimination: no r = 2 call reaches
    linalg.echelon.  The answers are those of the shared appendix run."""
    calls, eliminations = [], []

    def counting_deficient(ctx, lines, r, lo):
        before = len(eliminations)
        t = _largest_deficient(ctx, lines, r, lo)
        calls.append((r, len(eliminations) - before))
        return t

    def counting_echelon(ctx, rows):
        eliminations.append(len(rows))
        return echelon(ctx, rows)

    echelon = linalg.echelon
    monkeypatch.setattr(classify_mod, "_largest_deficient", counting_deficient)
    monkeypatch.setattr(linalg, "echelon", counting_echelon)
    for row in load_rows("all"):
        rep = classify(row.spec)
        expect = appendix_results[row.id].report
        assert (rep.d, rep.d_dual) == (expect.d, expect.d_dual), row.id
    ranks = [r for r, _ in calls]
    assert 1 not in ranks and 2 in ranks
    assert all(n == 0 for r, n in calls if r == 2)


def _oracle_deficient(ctx, lines, r, lo):
    """Largest t in [lo, len - 1] with a t-subset of ``lines`` of rank
    < r, by ranking every subset; 0 if none."""
    for t in range(len(lines) - 1, lo - 1, -1):
        if any(rank_rows(ctx, sub) < r for sub in combinations(lines, t)):
            return t
    return 0


def _lines_of_rank(rng, ctx, r, size):
    """``size`` vectors of length r and rank r: zero lines, multiples of
    a few shared directions, and free vectors, so that the largest
    deficient set mixes zeros with one repeated direction."""
    els = list(ctx.elements())
    while True:
        dirs = [[rng.choice(els) for _ in range(r)]
                for _ in range(rng.randint(1, 3))]
        lines = []
        for _ in range(size):
            kind = rng.random()
            if kind < 0.25:
                lines.append([ZERO] * r)
            elif kind < 0.75:
                c = rng.randrange(ctx.n)
                lines.append([ctx.mul(c, x) for x in rng.choice(dirs)])
            else:
                lines.append([rng.choice(els) for _ in range(r)])
        if rank_rows(ctx, lines) == r:
            return lines


def test_largest_deficient_matches_subset_ranks():
    """_largest_deficient for r = 2 (a count of zero lines plus the
    largest class of proportional lines) and r = 3 (the subset search)
    against ranking every subset, for every floor lo; and the rank-1
    count both engines make at the call site, the zero dot products,
    against the same oracle on the 1-vectors of those products."""
    rng = random.Random(26)
    zeros_decide = 0
    for p, m in ((7, 1), (3, 2), (5, 2)):
        ctx = field_new(p, m)
        els = list(ctx.elements())
        for _ in range(40):
            for r in (2, 3):
                lines = _lines_of_rank(rng, ctx, r, rng.randint(r + 1, 7))
                for lo in range(len(lines)):
                    assert (_largest_deficient(ctx, lines, r, lo)
                            == _oracle_deficient(ctx, lines, r, lo)), lines
                zeros = sum(line == [ZERO] * r for line in lines)
                top = _oracle_deficient(ctx, lines, r, 0)
                zeros_decide += r == 2 and 0 < zeros < top
            row = [rng.choice(els) for _ in range(rng.randint(2, 6))]
            cols = [[rng.choice([ZERO, ZERO] + els) for _ in row]
                    for _ in range(rng.randint(2, 7))]
            dots = [[ctx.dot(row, col)] for col in cols]
            if rank_rows(ctx, dots) == 1:
                t = sum(ctx.dot(row, col) < 0 for col in cols)
                assert t == _oracle_deficient(ctx, dots, 1, 0)
    # zero lines and one direction both count in many r = 2 answers
    assert zeros_decide >= 20


def grs_tail_spec(rng, ctx, l):
    """A spec with k = n = l whose tail A evaluates x^0..x^(l-1) at l
    points outside alpha (the last at infinity when 2l = q + 1), so that
    the code is GRS and MDS: the engines then search every level, and
    hand _largest_deficient every rank up to l - 1."""
    pts = rng.sample(list(ctx.elements()), min(2 * l, ctx.q))
    alpha, tail = pts[:l], pts[l:]
    cols = [[ctx.mul(w, ctx.pow(b, r)) for r in range(l)]
            for b, w in zip(tail, rng.choices(range(ctx.n), k=l))]
    cols += [[ZERO] * (l - 1) + [0]] * (l - len(tail))
    a = Matrix(ctx, [list(row) for row in zip(*cols)])
    v = rng.choices(range(ctx.n), k=l)
    return GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=l)


def wide_tail_specs(fields, tails, max_length, draws, seed):
    """``draws`` seeded specs for each field (p, m) and each shape
    (l, k, n) with l in ``tails`` and length n + l <= max_length (and
    l <= k <= n <= q), v and A random, A invertible; and for each l with
    2l <= min(max_length, q + 1), one GRS spec (grs_tail_spec)."""
    rng = random.Random(seed)
    specs = []
    for p, m in fields:
        ctx = field_new(p, m)
        for l in tails:
            for n in range(l, min(ctx.q, max_length - l) + 1):
                for k in range(l, n + 1):
                    specs += [random_small_spec(rng, ctx, k, l, n)
                              for _ in range(draws)]
            if 2 * l <= min(max_length, ctx.q + 1):
                specs.append(grs_tail_spec(rng, ctx, l))
    return specs


def wide_tail_problems(specs):
    """The specs on which grl_min_distance, dual_min_distance or classify
    disagrees with the column search on G or on a parity-check matrix."""
    problems = []
    for spec in specs:
        g = build_generator(spec)
        d, dd = min_distance(g), min_distance(dual_generator(g, EUCLIDEAN))
        got = (grl_min_distance(spec), dual_min_distance(spec))
        rep = classify(spec)
        if got != (d, dd) or (rep.d, rep.d_dual) != (d, dd):
            problems.append((spec.ctx.field_str(), spec.alpha, spec.v,
                             spec.a.data, spec.k, (d, dd), got,
                             (rep.d, rep.d_dual)))
    return problems


def test_wide_tails_match_column_search(monkeypatch):
    """Tails of width 5 and 6 (length <= 13 over GF(7), GF(3^2) and
    GF(11)): both standalone engines and classify agree with the column
    search, and each engine hands _largest_deficient every rank from 2
    to 5 on the way, so the direction count and the subset search for
    r = 3..5 are all checked against the oracle."""
    seen = {"grl_min_distance": set(), "dual_min_distance": set()}

    def recording(ctx, lines, r, lo):
        seen[sys._getframe(1).f_code.co_name].add(r)
        return _largest_deficient(ctx, lines, r, lo)

    monkeypatch.setattr(classify_mod, "_largest_deficient", recording)
    specs = wide_tail_specs(((7, 1), (3, 2), (11, 1)), (5, 6), 13, 3, 26)
    assert len(specs) == 3 * 35 + 3
    assert wide_tail_problems(specs) == []
    assert all(set(range(2, 6)) <= ranks for ranks in seen.values()), seen


class _CountedLevel(dict):
    """A copy of a signature level that counts, in ``counts[s]``, the
    signatures read from it one at a time; a lookup (``in``) is not
    counted."""

    def __init__(self, level, counts, s):
        super().__init__(level)
        self.counts, self.s = counts, s

    def __iter__(self):
        for sig in super().__iter__():
            self.counts[self.s] = self.counts.get(self.s, 0) + 1
            yield sig


class _IterationCounts(_Levels):
    """A level source whose levels count the signatures an engine
    iterates, per level, in ``counts``."""

    def __init__(self, spec):
        super().__init__(spec)
        self.counts = {}

    def __getitem__(self, s):
        return _CountedLevel(super().__getitem__(s), self.counts, s)


def _tail_zeros(ctx, a, sig):
    """The tail zeros of level k-1 at a signature: the zero entries of
    row . A with row = (s_{l-1}, ..., s_1, 1)."""
    row = sig[::-1] + (0,)
    return sum(ctx.dot(row, a.col(u)) < 0 for u in range(a.rows))


def test_rank_one_levels_are_decided_by_lookup(monkeypatch,
                                               appendix_results):
    """On every l = 2 appendix row neither engine reads its rank-1 level
    (d at k - 1, d-dual at k - l + 1) one signature at a time: each makes
    at most l^2 FieldCtx.dot calls, where a scan makes l per signature.
    Each lookup reads the level below its own, so neither engine builds
    level k - 1 on such a row.
    On the five B.4 l = 3 rows, whose level k - 1 holds no signature with
    two tail zeros, d reads that level up to its first signature with one
    tail zero and reads no other level."""
    dots = []
    dot = FieldCtx.dot

    def counting_dot(self, xs, ys):
        dots.append(1)
        return dot(self, xs, ys)

    b4_first = {}
    for row in load_rows("all"):
        spec = row.spec
        if row.id.startswith("B.4") and spec.l == 3:
            level = _Levels(spec)[spec.k - 1]
            zeros = [_tail_zeros(spec.ctx, spec.a, sig) for sig in level]
            assert max(zeros) == 1, row.id
            b4_first[row.id] = zeros.index(1) + 1
            assert b4_first[row.id] < len(level), row.id
    assert len(b4_first) == 5

    monkeypatch.setattr(FieldCtx, "dot", counting_dot)
    l2_rows = 0
    for row in load_rows("all"):
        spec, expect = row.spec, appendix_results[row.id].report
        k, l = spec.k, spec.l
        for engine, answer, rank_one in (
                (grl_min_distance, expect.d, k - 1),
                (dual_min_distance, expect.d_dual, k - l + 1)):
            levels = _IterationCounts(spec)
            dots.clear()
            assert engine(spec, levels=levels) == answer, row.id
            if l == 2:
                assert rank_one not in levels.counts, (row.id, engine)
                assert levels.built == k - 2, (row.id, engine)
                assert len(dots) <= l * l, (row.id, engine)
            elif engine is grl_min_distance and row.id in b4_first:
                assert levels.counts == {k - 1: b4_first[row.id]}, row.id
        l2_rows += l == 2
    assert l2_rows == 23


def _rank_one_signatures(ctx, a):
    """By trying every signature s_1..s_{l-1} over the field: those whose
    row (s_{l-1}, ..., s_1, 1) . A has l - 1 zeros (d), and those whose
    complete symmetric functions h (Newton's recurrence from s) lie on a
    column of A, which makes A^-1 h zero but for one entry (d-dual)."""
    l = a.rows
    acols = [a.col(u) for u in range(l)]
    roots, evaluations = set(), set()
    for sig in product(list(ctx.elements()), repeat=l - 1):
        if _tail_zeros(ctx, a, sig) == l - 1:
            roots.add(sig)
        s, h = (0,) + sig, [0]
        for j in range(1, l):
            h.append(ctx.neg(ctx.dot(s[1:j + 1], h[::-1])))
        if any(all(ctx.mul(col[0], x) == ctx.mul(c, h[0])
                   for x, c in zip(h, col)) for col in acols):
            evaluations.add(sig)
    return roots, evaluations


def every_invertible(ctx, l):
    """Every A in GL_l(q), as a Matrix."""
    els = list(ctx.elements())
    for entries in product(els, repeat=l * l):
        a = Matrix(ctx, [list(entries[i:i + l])
                         for i in range(0, l * l, l)])
        if rank(a) == l:
            yield a


def every_invertible_specs(p, m, alpha, k, l):
    """One spec per A in GL_l(p^m), on the fixed points ``alpha`` (ints,
    read by FieldCtx.from_int) with v all ones."""
    ctx = field_new(p, m)
    points = [ctx.from_int(x) for x in alpha]
    ones = [ctx.one()] * len(points)
    return [GrlSpec(ctx=ctx, alpha=points, v=ones, a=a, k=k)
            for a in every_invertible(ctx, l)]


def sparse_tail_specs(fields, tails, draws, seed):
    """``draws`` seeded specs per field (p, m), tail width l in ``tails``
    and shape of A: monomial (a permutation matrix with nonzero scales),
    upper triangular and lower triangular (nonzero diagonal, other
    entries anything).  Their zeros leave many rank-1 targets unsolvable:
    a monomial A makes l - 1 of the d minors singular, and a lower
    triangular one has A[0][u0] = 0 for every u0 >= 1."""
    rng = random.Random(seed)
    specs = []
    for p, m in fields:
        ctx = field_new(p, m)
        els, nonzero = list(ctx.elements()), list(ctx.nonzero_elements())
        for l in tails:
            for shape in ("monomial", "upper", "lower"):
                for _ in range(draws):
                    perm = rng.sample(range(l), l)
                    rows = []
                    for i in range(l):
                        if shape == "monomial":
                            rows.append([rng.choice(nonzero) if u == perm[i]
                                         else ZERO for u in range(l)])
                        else:
                            free = range(i + 1, l) if shape == "upper" \
                                else range(i)
                            rows.append([rng.choice(nonzero) if u == i
                                         else rng.choice(els) if u in free
                                         else ZERO for u in range(l)])
                    n = rng.randint(l, ctx.q)
                    specs.append(GrlSpec(
                        ctx=ctx, alpha=rng.sample(els, n),
                        v=[rng.choice(nonzero) for _ in range(n)],
                        a=Matrix(ctx, rows), k=rng.randint(l, n)))
    return specs


def test_rank_one_lookups_without_a_target():
    """The rank-1 lookups where a target does not exist: a singular
    (l - 1)-minor of A for d, A[0][u0] = 0 for d-dual.  Every A in
    GL_2(5) on one point set, and seeded monomial and triangular A with
    l = 3..5 over GF(7) and GF(3^2): the targets are exactly the
    signatures that give l - 1 zeros (every signature tried, for l <= 4),
    and both engines and classify agree with the column search on G and
    on a parity-check matrix (wide_tail_problems).  In both sets, each
    engine's lookup both finds a target in its level and finds none."""
    gl2 = every_invertible_specs(5, 1, [0, 1, 3], 2, 2)
    assert len(gl2) == 480
    sparse = sparse_tail_specs(((7, 1), (3, 2)), (3, 4, 5), 4, 32)
    for specs in (gl2, sparse):
        missing, found = [0, 0], [0, 0]
        for spec in specs:
            ctx, a, k, l = spec.ctx, spec.a, spec.k, spec.l
            roots = set(_rank_one_root_targets(ctx, a))
            evaluations = set(_rank_one_evaluation_targets(ctx, a))
            if l <= 4:
                assert (roots, evaluations) == _rank_one_signatures(ctx, a)
            levels = _Levels(spec)
            for i, (targets, s) in enumerate(((roots, k - 1),
                                              (evaluations, k - l + 1))):
                missing[i] += len(targets) < l
                found[i] += not targets.isdisjoint(levels[s])
        assert min(missing) >= len(specs) // 4, missing
        assert 0 < min(found) and max(found) < len(specs), found
        assert wide_tail_problems(specs) == []


def _subset_signatures(ctx, points, s, width):
    """{e_1..e_width(S): least last index} over the s-subsets S, from
    elementary_symmetric on each subset."""
    out = {}
    for idx in combinations(range(len(points)), s):
        sig = (elementary_symmetric(ctx, [points[i] for i in idx])
               + [ZERO] * width)[1:width + 1]
        key = tuple(sig)
        out[key] = min(out.get(key, idx[-1]), idx[-1])
    return out


def test_signature_levels_match_elementary_symmetric():
    """Each DP level equals the signatures of the s-subsets, with the
    least last index of a subset that reaches each one, listed in order
    of that index."""
    rng = random.Random(12)
    for p, m, n, width in ((5, 1, 5, 1), (7, 1, 7, 2), (3, 2, 8, 3),
                           (11, 1, 9, 2), (3, 3, 8, 3)):
        ctx = field_new(p, m)
        points = rng.sample(list(ctx.elements()), n)
        level = {(ZERO,) * width: -1}
        for s in range(1, n + 1):
            level = _extend(ctx, level, points)
            assert level == _subset_signatures(ctx, points, s, width)
            # the next level relies on this order
            assert list(level.values()) == sorted(level.values())
        assert len(level) == 1


def test_levels_holds_matches_subset_signatures():
    """_Levels.holds decides whether level s holds a signature from level
    s - 1, by peeling off each point's factor (1 + a_j x).  With k = l
    every level from 0 on is kept, so on seeded point sets with and
    without the zero point, widths 1..4 and every s in 1..n (s = 1 reads
    level 0, the start), it answers True for each signature of an
    s-subset and False for seeded signatures no s-subset has: random
    ones, and those of an (s - 1)-subset times the factor of a point it
    already holds, which only a peel that allows index j itself would
    find."""
    rng = random.Random(34)
    tried = members = outsiders = doubled = 0
    for p, m, n, width in ((5, 1, 4, 1), (7, 1, 6, 2), (3, 2, 8, 3),
                           (11, 1, 8, 4), (3, 3, 7, 4)):
        ctx = field_new(p, m)
        for with_zero in (False, True):
            alpha = rng.sample(list(ctx.nonzero_elements()), n - with_zero)
            if with_zero:
                alpha.insert(rng.randint(0, len(alpha)), ZERO)
            a = Matrix(ctx, [[0 if i == j else ZERO for j in range(width + 1)]
                             for i in range(width + 1)])
            spec = GrlSpec(ctx=ctx, alpha=alpha, v=[0] * n, a=a,
                           k=width + 1)
            levels = _Levels(spec)
            points = levels.neg
            assert (ZERO in points) == with_zero
            for s in range(1, n + 1):
                level = _subset_signatures(ctx, points, s, width)
                for sig in level:
                    assert levels.holds(s, [sig]), (p, m, s, sig)
                members += len(level)
                others = set()
                for _ in range(20):
                    others.add(tuple(rng.choice([ZERO, *range(ctx.n)])
                                     for _ in range(width)))
                    idx = rng.sample(range(n), s - 1)
                    if idx:
                        twice = idx + [rng.choice(idx)]
                        sig = elementary_symmetric(
                            ctx, [points[i] for i in twice])
                        sig = tuple((sig + [ZERO] * width)[1:width + 1])
                        doubled += sig not in level
                        others.add(sig)
                others -= set(level)
                for sig in others:
                    assert not levels.holds(s, [sig]), (p, m, s, sig)
                outsiders += len(others)
                if level and others:
                    assert levels.holds(s, [*others, next(iter(level))])
                tried += 1
    assert tried == 2 * (4 + 6 + 8 + 8 + 7)
    assert min(members, outsiders, doubled) > 0, (members, outsiders,
                                                  doubled)


def test_dual_distance_agrees_with_enumeration():
    """d-dual against the parity-check column search (from w = 1, on
    another basis of the code) and, where small, full enumeration; the
    shapes l = k and l = 2 put the lower bound k - l + 2 at 2 and k."""
    rng = random.Random(77)
    specs = []
    for p, m in ((5, 1), (3, 2), (11, 1)):
        ctx = field_new(p, m)
        specs += [random_small_spec(rng, ctx) for _ in range(10)]
    for p, m in ((7, 1), (3, 2), (13, 1)):
        ctx = field_new(p, m)
        for k, l in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 4)):
            specs += [random_small_spec(rng, ctx, k, l) for _ in range(3)]
    at_bound = 0
    for spec in specs:
        g = build_generator(spec)
        h = dual_generator(g, EUCLIDEAN)
        dd = dual_min_distance(spec)
        assert dd >= spec.k - spec.l + 2
        assert dd == min_distance(h)
        at_bound += dd == spec.k - spec.l + 2
        if spec.ctx.q ** h.rows - 1 <= 30000:
            assert dd == enum_min_distance(h, limit=30000)
    assert at_bound >= 10  # the start is attained, not only a bound


def test_budget_exceeded_carries_lower_bound():
    ctx = field_new(5, 2)
    alpha = [ctx.element(3 * i + 1) for i in range(1, 9)]
    spec = unit_spec(ctx, alpha, [["g^0", "g^1"], ["g^2", "g^4"]], 8)
    g = build_generator(spec)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(g, budget=10)
    assert exc.value.lower_bound == 2 and exc.value.budget == 10
    assert str(exc.value) == "distance search exceeded budget 10; d >= 2"
    with pytest.raises(BudgetExceeded) as exc:
        dual_min_distance(spec, budget=3)
    # the dual search starts at k - l + 2 = 8, so that much is proven
    assert exc.value.lower_bound == 8 and exc.value.budget == 3
    assert str(exc.value) == "distance search exceeded budget 3; d >= 8"
    assert exc.value.lower_bound <= dual_min_distance(spec)


def test_grl_min_distance_budget_on_long_code():
    # [103, 6] over GF(99991), l = 3: the signature levels up to k - 1 = 5
    # hold up to min(C(100, s), 99991^2) entries; level 4 alone may cost
    # 100 * C(100, 3) > 10^7, so the search stops before it builds any
    ctx = field_new(99991)
    alpha = [ctx.element(e) for e in range(1, 101)]
    spec = unit_spec(ctx, alpha, [["g^0", "0", "0"], ["0", "g^0", "0"],
                                  ["0", "0", "g^0"]], 6)
    with pytest.raises(BudgetExceeded) as exc:
        grl_min_distance(spec)
    assert exc.value.lower_bound == 95 and exc.value.budget == 10 ** 7
    assert str(exc.value) == ("distance search exceeded budget 10000000; "
                              "d >= 95")


def test_classify_budget_on_long_code():
    # the [103, 6] GF(99991) code of the test above: classify stops in d,
    # before it builds any signature level, with the same lower bound
    ctx = field_new(99991)
    alpha = [ctx.element(e) for e in range(1, 101)]
    spec = unit_spec(ctx, alpha, [["g^0", "0", "0"], ["0", "g^0", "0"],
                                  ["0", "0", "g^0"]], 6)
    with pytest.raises(BudgetExceeded) as exc:
        classify(spec)
    assert exc.value.lower_bound == 95 and exc.value.budget == 10 ** 7


def test_grl_min_distance_charges_each_level_in_full():
    # A.1 is [7, 5] with n = 5, l = 2 over GF(81): d needs the signature
    # levels 1..k-1 = 4, which cost 5 * (1 + 5 + 10 + 10) = 130 steps
    spec = example_a1_spec()
    assert grl_min_distance(spec, budget=130) == 3
    with pytest.raises(BudgetExceeded) as exc:
        grl_min_distance(spec, budget=129)
    assert exc.value.lower_bound == 1 and exc.value.budget == 129
    assert str(exc.value) == "distance search exceeded budget 129; d >= 1"


def test_dual_budget_charges_each_signature_level():
    # A.2 is [12, 8, 4] with n = 8, l = 4 and d-dual = 8.  The search
    # starts at e = k - l + 1 = 5 evaluation columns, after levels 1..5,
    # which cost 8 * (1 + 8 + 28 + 56 + 70) = 1304 steps; level 6 costs
    # 8 * C(8, 5) = 448 more.  Level 5 holds no dependency of weight 6,
    # so stopping before level 6 proves d-dual >= 7; level 6 finds 8.
    spec = example_a2_spec()
    assert dual_min_distance(spec, budget=1752) == 8
    for budget, lower in ((1751, 7), (1303, 6)):
        with pytest.raises(BudgetExceeded) as exc:
            dual_min_distance(spec, budget=budget)
        assert exc.value.lower_bound == lower and exc.value.budget == budget


def test_budget_lower_bounds_are_sound(appendix_results):
    """Every exhausted budget reports a lower bound no larger than the
    true distance, for d and d-dual, on every appendix row."""
    raised = dict.fromkeys((1, 10, 100, 1000), 0)
    for row in load_rows("all"):
        rep = appendix_results[row.id].report
        for engine, true in ((grl_min_distance, rep.d),
                             (dual_min_distance, rep.d_dual)):
            for budget in raised:
                try:
                    assert engine(row.spec, budget=budget) == true, row.id
                except BudgetExceeded as exc:
                    assert exc.lower_bound <= true, (row.id, budget)
                    raised[budget] += 1
    # budget 1 stops both searches on every row (the first level of d
    # alone costs C(n, k-1) >= n); larger budgets let some rows finish
    assert raised[1] == 2 * 33
    assert sum(raised.values()) >= 2 * 33 * 2


def test_enum_guard():
    ctx = field_new(5, 2)
    with pytest.raises(TooLarge):
        enum_min_distance(Matrix.identity(ctx, 8), limit=1000)


def test_classify_example_a1():
    rep = classify(example_a1_spec())
    assert (rep.n, rep.k, rep.d) == (7, 5, 3)
    assert rep.label == "MDS" and rep.defect == 0
    assert rep.d_dual == 6 and rep.defect_dual == 0
    assert rep.hull_e.is_lcd
    assert rep.hull_h is not None  # GF(81) is a square field


def test_classify_example_a2_nmds():
    rep = classify(example_a2_spec())
    assert (rep.n, rep.k, rep.d) == (12, 8, 4)
    assert rep.label == "NMDS"
    assert rep.hull_e.is_lcd


def test_classify_mds_dual_is_mds():
    # duality consistency on an MDS report
    rep = classify(example_a1_spec())
    assert rep.label == "MDS"
    assert rep.d_dual == rep.k + 1


def test_min_distance_parity_method_example_a7():
    # [18,8,10]: the parity-check matrix is 10x18 and every 9-column
    # subset is independent while some 10-subset is dependent
    ctx = field_new(5, 2)
    alpha = [ctx.element(3 * i) for i in range(1, 9)] + \
            [ctx.element(3 * i + 1) for i in range(1, 9)]
    spec = unit_spec(ctx, alpha, [["g^0", "g^1"], ["g^2", "g^4"]], 8)
    assert min_distance(build_generator(spec)) == 10


def test_distance_depends_on_the_generator_convention():
    """The same power table yields different codes under different
    primitive elements, and the minimum distance genuinely moves; this
    pins the generator convention as part of the interface."""
    ctx = field_new(5, 2)
    a_exps = [[0, 1, 2, 1], [1, 3, 5, 7], [1, 6, 10, 14], [3, 9, 15, 21]]

    def dist_under(u):
        a = Matrix(ctx, [[ctx.element(u * e) for e in row] for row in a_exps])
        alpha = [ctx.element(u * (3 * i + 1)) for i in range(1, 9)]
        spec = GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * 8, a=a, k=8)
        return grl_min_distance(spec)

    dists = {u: dist_under(u) for u in (1, 5, 7, 11, 13, 17, 19, 23)}
    assert dists[1] == 4          # the pinned convention
    assert set(dists.values()) == {3, 4}  # other generators give 3


def test_every_mds_appendix_report_has_mds_dual(appendix_results):
    """classify takes d-dual = k + 1 from d = N - k + 1 without a search;
    the d-dual search agrees on each MDS row."""
    mds = []
    for row in load_rows("all"):
        rep = appendix_results[row.id].report
        if rep.label == "MDS":
            assert rep.d_dual == rep.k + 1, row.id
            assert dual_min_distance(row.spec) == rep.k + 1, row.id
            mds.append(row.id)
    assert mds == ["A.1", "A.6(2)", "B.1(1)", "B.2"]


def test_singleton_defect_nonnegative():
    rng = random.Random(31)
    for p, m in ((5, 1), (3, 2)):
        ctx = field_new(p, m)
        for _ in range(8):
            rep = classify(random_small_spec(rng, ctx))
            assert rep.defect >= 0
            assert rep.defect_dual >= 0
            assert 1 <= rep.d <= rep.n - rep.k + 1


def test_report_serialization():
    rep = classify(example_a1_spec())
    d = rep.to_json_dict()
    assert d["label"] == "MDS" and d["hull_euclidean"]["is_lcd"]
    assert d["eaqecc"]["euclidean"][0]["n"] == 7
    assert rep.csv_row().startswith("7,5,3,MDS,0,")
