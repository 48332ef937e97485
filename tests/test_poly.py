import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartic_lines.errors import InconsistencyError
from quartic_lines.field import FieldSpec
from quartic_lines.poly import (Poly, SparsePoly, _bareiss_det, binary_roots,
                                det_generic, divide_by_linear,
                                squarefree_test, sylvester_resultant)

SPEC16 = FieldSpec.default(4)
SPEC8 = FieldSpec.default(3)
SPEC4 = FieldSpec.default(2)


def polys(spec, max_deg=5):
    return st.lists(st.integers(0, spec.size - 1),
                    max_size=max_deg + 1).map(lambda c: Poly(spec, c))


def sparse_polys(nvars, spec, max_terms=3, max_exp=2):
    monos = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(monos, st.integers(1, spec.size - 1),
                           max_size=max_terms).map(
        lambda t: SparsePoly(nvars, spec, t))


def sylvester_matrix(f, g, zero):
    """The (m+n) x (m+n) Sylvester matrix of two binary forms of formal
    degrees m = len(f)-1 and n = len(g)-1 (coefficients x-major): the
    oracle for `sylvester_resultant`."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([zero] * i + list(f) + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + list(g) + [zero] * (size - n - 1 - i))
    return rows


@given(polys(SPEC8), polys(SPEC8), polys(SPEC8))
def test_poly_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(polys(SPEC8), polys(SPEC8))
def test_divmod_identity(f, g):
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree() < g.degree()


@given(polys(SPEC8, 4), polys(SPEC8, 4))
def test_gcd_divides_both(f, g):
    d = f.gcd(g)
    if d.is_zero():
        assert f.is_zero() and g.is_zero()
        return
    assert (f % d).is_zero() and (g % d).is_zero()


@given(polys(SPEC8, 5))
def test_roots_are_roots_with_multiplicity(f):
    if f.is_zero():
        return
    for r, m in f.roots():
        assert f.eval_int(r) == 0
        assert f.multiplicity_at(r) == m >= 1


def test_multiplicity_exact():
    # (x + 1)^3 * (x + 2) over GF(4)
    x = Poly.x(SPEC4)
    one = Poly.one(SPEC4)
    f = (x + one) ** 3 * (x + Poly.constant(SPEC4, 2))
    assert f.multiplicity_at(1) == 3
    assert f.multiplicity_at(2) == 1
    assert f.multiplicity_at(3) == 0
    assert dict(f.roots()) == {1: 3, 2: 1}


@given(polys(SPEC8, 3), polys(SPEC8, 3))
def test_resultant_vanishes_iff_common_root_over_closure(f, g):
    # compare against the gcd criterion for polynomials with unit leading
    # coefficients and honest degrees
    if f.is_zero() or g.is_zero() or f.degree() < 1 or g.degree() < 1:
        return
    res = sylvester_resultant(
        [Poly.constant(SPEC8, c) for c in reversed(f.coeffs)],
        [Poly.constant(SPEC8, c) for c in reversed(g.coeffs)],
        Poly.zero(SPEC8))
    assert res.degree() <= 0
    common = f.gcd(g).degree() >= 1
    assert res.is_zero() == common


def test_resultant_of_binary_forms_matches_root_products():
    # f = u*v (roots 0, inf), g = (u + v)^2: no common projective root
    zero = Poly.zero(SPEC4)
    f = [zero, Poly.one(SPEC4), zero]                 # u^2*0 + uv + v^2*0
    g = [Poly.one(SPEC4), zero, Poly.one(SPEC4)]      # u^2 + v^2
    r = sylvester_resultant(f, g, zero)
    assert not r.is_zero()
    # sharing the root [1:1]
    g2 = [Poly.one(SPEC4), Poly.one(SPEC4), zero]     # u^2 + uv = u(u+v)
    assert sylvester_resultant(f, g2, zero).is_zero()
    # formal leading zeros and unequal degrees: h = u*v^2 and v share
    # [1:0]; h and u + v share nothing, Res = h(1, 1) = 1 either way round
    one = Poly.one(SPEC4)
    h = [zero, zero, one, zero]
    assert sylvester_resultant(h, [zero, one], zero).is_zero()
    assert sylvester_resultant(h, [one, one], zero) == one
    assert sylvester_resultant([one, one], h, zero) == one


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(SPEC16, 2), min_size=2, max_size=4),
       st.lists(polys(SPEC16, 2), min_size=2, max_size=4))
def test_poly_resultant_matches_generic_expansion(f, g):
    # binary forms over GF(16)[lambda]: the resultant of `Poly` entries
    # agrees with the division-free expansion of the Sylvester matrix
    zero = Poly.zero(SPEC16)
    want = det_generic(sylvester_matrix(f, g, zero), zero)
    assert sylvester_resultant(f, g, zero) == want


@pytest.mark.parametrize("k", [1, 4, 8])
def test_bareiss_matches_the_expansion_on_random_poly_matrices(k):
    # sizes 1 to 7 on both sides of the size at which `sylvester_resultant`
    # moves from the expansion to Bareiss; every other matrix singular,
    # one row a multiple of another (a zero entry at size 1)
    spec = FieldSpec.default(k)
    rng = random.Random(f"bareiss:{k}")
    zero = Poly.zero(spec)

    def entry():
        return Poly(spec, [rng.randrange(spec.size)
                           for _ in range(rng.randrange(5))])

    nonsingular = 0
    for n in range(1, 8):
        for trial in range(6 if n <= 5 else 2):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 2:
                c = entry()
                rows[0] = [c * x for x in rows[-1]] if n > 1 else [zero]
            det = _bareiss_det(rows)
            assert det == det_generic(rows, zero), (n, trial)
            assert det.is_zero() or not trial % 2
            nonsingular += not det.is_zero()
    assert nonsingular >= 10


def test_bareiss_resultants_match_the_sylvester_determinant_at_points():
    # formal degrees 6 to 8 against 1 to 3 over GF(256)[lambda], so that
    # `sylvester_resultant` takes its hybrid Bezout matrix past
    # `_EXPANSION_MAX` to Bareiss: at each of a few points lambda = t the
    # result is the Sylvester determinant of the forms there, expanded by
    # `det_generic` on constant entries; every third pair shares a linear
    # factor, so its resultant is zero
    spec = FieldSpec.default(8)
    rng = random.Random("bareiss-resultants")
    zero = Poly.zero(spec)

    def entry():
        return Poly(spec, [rng.randrange(spec.size) for _ in range(3)])

    def times(form, lin):
        # the binary form times a linear one, coefficients x-major
        out = [zero] * len(form) + [zero]
        for i, c in enumerate(form):
            out[i] = out[i] + c * lin[0]
            out[i + 1] = out[i + 1] + c * lin[1]
        return out

    shared = 0
    for trial in range(9):
        n, m = rng.randrange(6, 9), rng.randrange(1, 4)
        f = [entry() for _ in range(n + 1)]
        g = [entry() for _ in range(m + 1)]
        if trial % 4 == 1:
            f[0] = zero        # a formal leading zero
        if trial % 3 == 2:
            lin = [entry(), entry()]
            f, g = times(f[:-1], lin), times(g[:-1], lin)
        res = sylvester_resultant(f, g, zero)
        assert res.is_zero() == (trial % 3 == 2), trial
        shared += res.is_zero()
        for t in rng.sample(range(spec.size), 3):
            at = [[Poly.constant(spec, c.eval_int(t)) for c in form]
                  for form in (f, g)]
            want = det_generic(sylvester_matrix(*at, zero), zero)
            assert Poly.constant(spec, res.eval_int(t)) == want, (trial, t)
    assert shared == 3


def _forms(entries, max_deg):
    """Binary forms of formal degree 1..max_deg, the leading (x^deg)
    coefficient forced to zero when the flag is set."""
    return st.tuples(st.lists(entries, min_size=2, max_size=max_deg + 1),
                     st.booleans()).map(
        lambda fz: [fz[0][0] - fz[0][0]] + fz[0][1:] if fz[1] else fz[0])


_ENTRY_RINGS = {
    "poly": (polys(SPEC16, 3), Poly.zero(SPEC16), 4),
    "sparse3": (sparse_polys(3, SPEC4), SparsePoly.zero(3, SPEC4), 3),
    "sparse4": (sparse_polys(4, SPEC4), SparsePoly.zero(4, SPEC4), 3),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resultant_matches_sylvester_determinant(data):
    # the hybrid Bezout determinant against the Sylvester determinant, for
    # unequal formal degrees (either side larger), formal leading zeros on
    # either side, formal degree 1, Poly and 3- and 4-variable SparsePoly
    # entries
    ring = data.draw(st.sampled_from(sorted(_ENTRY_RINGS)))
    entries, zero, max_deg = _ENTRY_RINGS[ring]
    f = data.draw(_forms(entries, max_deg))
    g = data.draw(_forms(entries, max_deg))
    want = det_generic(sylvester_matrix(f, g, zero), zero)
    assert sylvester_resultant(f, g, zero) == want


def test_det_generic_matches_fraction_elimination():
    import random
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                for _ in range(n)]
        got = det_generic([[x for x in row] for row in rows], Fraction(0))
        # Laplace reference
        def laplace(m):
            if len(m) == 1:
                return m[0][0]
            tot = Fraction(0)
            for j in range(len(m)):
                sub = [row[:j] + row[j + 1:] for row in m[1:]]
                tot += (-1) ** j * m[0][j] * laplace(sub)
            return tot
        assert got == laplace(rows)


def test_binary_roots_counts_degree_with_infinity():
    # coeffs are u-major: [0,0,1,0] = u*v^2, roots [1:0] (mult 2, where
    # v = 0) and [0:1] (mult 1, where u = 0)
    got = dict(binary_roots([0, 0, 1, 0], SPEC4))
    assert got == {(1, 0): 2, (0, 1): 1}


@given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
def test_binary_roots_multiplicities_bounded_by_degree(coeffs):
    if not any(coeffs):
        return
    d = len(coeffs) - 1
    assert sum(m for _, m in binary_roots(coeffs, SPEC4)) <= d


def test_sparse_integer_arithmetic_is_exact():
    x = SparsePoly.variable(0, 2, None)
    y = SparsePoly.variable(1, 2, None)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.derivative(0) == x.scale(2)
    g = (x + y) ** 3
    assert g.terms[(2, 1)] == 3


def test_sparse_char2_derivative_kills_even_exponents():
    x = SparsePoly.variable(0, 1, SPEC4)
    assert (x ** 4).derivative(0).is_zero()
    assert (x ** 3).derivative(0) == x * x


def test_divide_by_linear_roundtrip():
    x = [SparsePoly.variable(i, 3, SPEC4) for i in range(3)]
    ell = (1, 2, 3)
    lin = x[0] + x[1].scale(2) + x[2].scale(3)
    q = x[0] * x[1] + x[2] * x[2]
    quotient = divide_by_linear(lin * q, ell)
    assert quotient == q
    assert divide_by_linear(q, ell) is None


def test_squarefree_test_detects_square():
    x = [SparsePoly.variable(i, 4, SPEC4) for i in range(4)]
    f = (x[0] + x[1]) ** 2 * x[2] * x[3]
    ok, witness = squarefree_test(f)
    assert not ok and witness is not None
    ok2, _ = squarefree_test(x[0] * x[1] * x[2] * x[3])
    assert ok2


def _squarefree_scan(p):
    """The former squarefree test, the oracle: the perfect-square case, then
    every normalized linear form ell (first nonzero coefficient 1) scanned
    for ell^2 | p."""
    spec = p.spec
    if all(k % 2 == 0 for e in p.terms for k in e):
        return False, SparsePoly(p.nvars, spec,
                                 {tuple(k // 2 for k in e): spec.sqrt_int(c)
                                  for e, c in p.terms.items()})
    for pivot in range(p.nvars):
        for tail in itertools.product(range(spec.size),
                                      repeat=p.nvars - pivot - 1):
            ell = (0,) * pivot + (1,) + tail
            q = divide_by_linear(p, ell)
            if q is not None and divide_by_linear(q, ell) is not None:
                return False, _linear(p.nvars, spec, ell)
    return True, None


def _linear(nvars, spec, ell):
    return SparsePoly(nvars, spec,
                      {tuple(int(i == j) for j in range(nvars)): c
                       for i, c in enumerate(ell) if c})


def _random_form(rng, nvars, spec, d):
    return SparsePoly(nvars, spec, {
        e: rng.randrange(spec.size)
        for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d})


def _random_linear(rng, nvars, spec):
    while True:
        ell = [rng.randrange(spec.size) for _ in range(nvars)]
        if any(ell):
            return _linear(nvars, spec, ell)


def _squarefree_cases(k, nvars, d, per_kind, seed):
    """Seeded forms of degree d: random, ell^2 h (ell^2 m for a cubic),
    q q' and, for quartics, q^2."""
    spec = FieldSpec.default(k)
    rng = random.Random(seed)
    makers = {
        "random": lambda: _random_form(rng, nvars, spec, d),
        "ell^2 h": lambda: (_random_linear(rng, nvars, spec) ** 2
                            * _random_form(rng, nvars, spec, d - 2)),
        "q q'": lambda: (_random_form(rng, nvars, spec, 2)
                         * _random_form(rng, nvars, spec, d - 2)),
    }
    if d == 4:
        makers["q^2"] = lambda: _random_form(rng, nvars, spec, 2) ** 2
    out = []
    for kind, make in makers.items():
        for _ in range(per_kind):
            f = make()
            if not f.is_zero():
                out.append((kind, f))
    return out


@pytest.mark.parametrize("k,nvars,d,per_kind", [
    (1, 3, 3, 40), (1, 3, 4, 40), (1, 4, 3, 40), (1, 4, 4, 40),
    (2, 3, 3, 25), (2, 3, 4, 25), (2, 4, 3, 10), (2, 4, 4, 10),
    (3, 3, 3, 10), (3, 3, 4, 10), (3, 4, 3, 6), (3, 4, 4, 6)])
def test_squarefree_test_matches_the_linear_form_scan(k, nvars, d, per_kind):
    cases = _squarefree_cases(k, nvars, d, per_kind,
                              seed=100 * k + 10 * nvars + d)
    verdicts = set()
    for kind, f in cases:
        got = squarefree_test(f)
        assert got == _squarefree_scan(f), (kind, f)
        ok, w = got
        verdicts.add(ok)
        if ok:
            continue
        if w.total_degree() == 1:
            ell = _linear_coeffs(w)
            q = divide_by_linear(f, ell)
            assert q is not None and divide_by_linear(q, ell) is not None
        else:
            assert w * w == f
    assert verdicts == {True, False}


def _linear_coeffs(w):
    n = w.nvars
    return [w.terms.get(tuple(int(i == j) for j in range(n)), 0)
            for i in range(n)]


def _proportional(w, ell):
    """w and ell are linear forms, equal up to a nonzero scalar."""
    a, b, mul = _linear_coeffs(w), _linear_coeffs(ell), w.spec.mul_int
    return (w.total_degree() == 1 == ell.total_degree()
            and all(mul(a[i], b[j]) == mul(a[j], b[i])
                    for i, j in itertools.combinations(range(len(a)), 2)))


@pytest.mark.parametrize("k", [1, 8])
def test_squarefree_witness_of_a_repeated_linear_factor(k):
    spec = FieldSpec.default(k)
    rng = random.Random(k)
    checked = 0
    for nvars in (3, 4):
        for _ in range(3):
            ell = _random_linear(rng, nvars, spec)
            h = _random_form(rng, nvars, spec, 2)
            m = _random_form(rng, nvars, spec, 1)
            for f in (ell * ell * h, ell * ell * m):
                if f.is_zero():
                    continue
                ok, w = squarefree_test(f)
                assert not ok
                if w.total_degree() == 1:   # else h is a square, and f too
                    assert _proportional(w, ell)
                    checked += 1
    assert checked >= 8


def test_squarefree_test_refuses_what_is_not_a_form_of_degree_at_most_4():
    x = [SparsePoly.variable(i, 3, SPEC4) for i in range(3)]
    with pytest.raises(ValueError):
        squarefree_test(x[0] ** 5 + x[1] ** 4 * x[2])
    with pytest.raises(ValueError):
        squarefree_test(x[0] ** 3 + x[1])


def test_reverse_and_compose():
    f = Poly(SPEC4, [1, 0, 2])       # 2x^2 + 1
    assert f.reverse(2) == Poly(SPEC4, [2, 0, 1])
    assert f.reverse(3) == Poly(SPEC4, [0, 2, 0, 1])
    shift = Poly(SPEC4, [1, 1])      # x + 1
    g = f.compose(shift)
    for v in range(4):
        assert g.eval_int(v) == f.eval_int(v ^ 1)


_POWER_BASES = {
    "Poly": lambda: Poly(SPEC16, [3, 0, 7, 1]),
    "SparsePoly GF(16)": lambda: SparsePoly(3, SPEC16, {
        (1, 0, 0): 1, (0, 1, 1): 9, (0, 0, 2): 14}),
    "SparsePoly Z": lambda: SparsePoly(2, None, {(1, 0): 3, (0, 1): -1,
                                                 (0, 0): 2}),
}


@pytest.mark.parametrize("ring", sorted(_POWER_BASES))
@pytest.mark.parametrize("k", range(10))
def test_power_is_the_repeated_product(ring, k):
    p = _POWER_BASES[ring]()
    want = p ** 0
    assert want == (Poly.one(SPEC16) if ring == "Poly"
                    else SparsePoly.constant(p.nvars, p.spec, 1))
    for _ in range(k):
        want = want * p
    assert p ** k == want


def _mat_point(y, m, spec):
    """x = y.m on the first len(m) coordinates, the rest copied."""
    n = len(m)
    x = list(y)
    for c in range(n):
        if spec is None:
            x[c] = sum(y[j] * m[j][c] for j in range(n))
        else:
            acc = 0
            for j in range(n):
                acc ^= spec.mul_int(y[j], m[j][c])
            x[c] = acc
    return x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_linear_change_matches_evaluation_at_the_moved_point(data):
    # f.linear_change(m)(y) == f(y.m), over GF(16) and over Z, with m on
    # all four variables or on the first three
    spec = data.draw(st.sampled_from([SPEC16, None]))
    coeffs = st.integers(1, 15) if spec else st.integers(-9, 9)
    monos = st.tuples(*[st.integers(0, 3)] * 4)
    f = SparsePoly(4, spec, data.draw(st.dictionaries(monos, coeffs,
                                                      max_size=6)))
    n = data.draw(st.sampled_from([3, 4]))
    entries = st.integers(0, 15) if spec else st.integers(-3, 3)
    m = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    moved = f.linear_change(m)
    for _ in range(4):
        y = data.draw(st.lists(entries, min_size=4, max_size=4))
        assert moved.evaluate(y) == f.evaluate(_mat_point(y, m, spec))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_divide_by_linear_undoes_the_product(nvars, data):
    f = data.draw(sparse_polys(nvars, SPEC16, max_terms=6, max_exp=3))
    lead_zeros = data.draw(st.integers(0, nvars - 1))
    ell = [0] * lead_zeros + data.draw(st.lists(
        st.integers(0, 15), min_size=nvars - lead_zeros,
        max_size=nvars - lead_zeros).filter(lambda t: t[0]))
    lin = SparsePoly(nvars, SPEC16, {
        tuple(int(i == j) for i in range(nvars)): c
        for j, c in enumerate(ell)})
    assert divide_by_linear(f * lin, ell) == f


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_divide_by_linear_refuses_a_form_alive_on_the_hyperplane(nvars,
                                                                  data):
    # a point of {ell = 0} where f is nonzero proves ell does not divide f
    f = data.draw(sparse_polys(nvars, SPEC16, max_terms=6, max_exp=3))
    ell = data.draw(st.lists(st.integers(0, 15), min_size=nvars,
                             max_size=nvars).filter(any))
    pivot = next(i for i, c in enumerate(ell) if c)
    pt = data.draw(st.lists(st.integers(0, 15), min_size=nvars,
                            max_size=nvars))
    pt[pivot] = 0
    rest = 0
    for c, v in zip(ell, pt):
        rest ^= SPEC16.mul_int(c, v)
    pt[pivot] = SPEC16.div_int(rest, ell[pivot])
    if f.evaluate(pt) != 0:
        assert divide_by_linear(f, ell) is None


def test_divide_by_linear_with_leading_zero_coefficients():
    x = [SparsePoly.variable(i, 4, SPEC16) for i in range(4)]
    lin = x[2].scale(5) + x[3].scale(11)
    q = x[0] ** 2 * x[3] + x[1] * x[2] ** 2 + x[3] ** 3
    assert divide_by_linear(lin * q, (0, 0, 5, 11)) == q
    assert divide_by_linear(q, (0, 0, 5, 11)) is None


def test_three_factor_product_with_a_cancelled_middle_term():
    # (x + a y)^2 = x^2 + a^2 y^2: the cross term cancels and must be gone
    # before the next product, or its zero coefficient reads a logarithm;
    # substitute chains the image products as plain term dicts
    a = 6
    a2 = SPEC16.mul_int(a, a)
    x, y = (SparsePoly.variable(i, 2, SPEC16) for i in range(2))
    lin = x + y.scale(a)
    assert (lin * lin).terms == {(2, 0): 1, (0, 2): a2}
    want = SparsePoly(2, SPEC16, {(3, 0): 1, (2, 1): 1, (1, 2): a2,
                                  (0, 3): a2})
    assert lin * lin * (x + y) == want
    v = [SparsePoly.variable(i, 5, SPEC16) for i in range(5)]
    lin5 = v[3] + v[4].scale(a)
    chained = (v[0] * v[1] * v[2]).substitute({0: lin5, 1: lin5,
                                               2: v[3] + v[4]})
    assert chained == SparsePoly(5, SPEC16, {
        (0, 0, 0) + e: c for e, c in want.terms.items()})
    assert chained.evaluate([0, 0, 0, 7, 9]) == SPEC16.mul_int(
        SPEC16.pow_int(7 ^ SPEC16.mul_int(a, 9), 2), 7 ^ 9)
    # products wrap the dict of `_mul_terms` unfiltered: no zero may be
    # left in it, over the field or over Z ((x + y)(x - y) = x^2 - y^2)
    xz, yz = (SparsePoly.variable(i, 2, None) for i in range(2))
    for prod in (lin * lin, lin * lin * (x + y), lin ** 4,
                 (lin * lin) * (lin * lin), (xz + yz) * (xz - yz),
                 (xz + yz) * (xz - yz) * (xz - yz)):
        assert 0 not in prod.terms.values()
    assert ((xz + yz) * (xz - yz)).terms == {(2, 0): 1, (0, 2): -1}


def _form_with_an_absent_variable(rng, spec, nvars):
    """Up to eight terms of exponents up to 3, one variable absent."""
    absent = rng.randrange(nvars)
    terms = {}
    for _ in range(rng.randrange(9)):
        e = [rng.randrange(4) for _ in range(nvars)]
        e[absent] = 0
        terms[tuple(e)] = rng.randrange(1, spec.size)
    return SparsePoly(nvars, spec, terms)


@pytest.mark.parametrize("k", [1, 2, 16])
def test_restrict_matches_substitution_and_evaluation(k):
    # every subset of the variables set to zero and nonzero values, as
    # substitute + drop_vars and evaluate give it; one variable left gives
    # a Poly, two a form whose rows at any formal length past its degree
    # add up to it
    spec, rng = FieldSpec.default(k), random.Random(f"restrict:{k}")
    for _ in range(30):
        nvars = rng.randrange(1, 5)
        f = _form_with_an_absent_variable(rng, spec, nvars)
        for size in range(nvars + 1):
            for fixed in itertools.combinations(range(nvars), size):
                values = {v: rng.choice([0, 1, rng.randrange(spec.size)])
                          for v in fixed}
                keep = [v for v in range(nvars) if v not in values]
                want = f.substitute({v: SparsePoly.constant(nvars, spec, a)
                                     for v, a in values.items()}
                                    ).drop_vars(keep)
                got = f.restrict(values)
                pt = [rng.randrange(spec.size) for _ in keep]
                full = [values.get(v, 0) for v in range(nvars)]
                for v, a in zip(keep, pt):
                    full[v] = a
                if len(keep) == 1:
                    assert isinstance(got, Poly)
                    assert got == Poly(spec, [
                        want.terms.get((i,), 0)
                        for i in range(want.degree_in(0) + 1)])
                    assert got.eval_int(pt[0]) == f.evaluate(full)
                    continue
                assert got == want
                assert got.evaluate(pt) == f.evaluate(full)
                if len(keep) == 2:
                    rows = got.rows(got.degree_in(0) + 1 + rng.randrange(2))
                    total = 0
                    for i, row in enumerate(rows):
                        total ^= spec.mul_int(spec.pow_int(pt[0], i),
                                              row.eval_int(pt[1]))
                    assert total == f.evaluate(full)


def test_rows_read_a_binary_form_at_its_formal_length():
    # x2 x3^2 as a cubic in (x2 : x3), over polynomials in l: at x2 = 1 it
    # has degree 2 in x3, and its root at (0 : 1) is common with
    # x2 (x2^2 + l x3^2) only when read with its formal degree 3
    spec = SPEC16
    x2, x3, lam = (SparsePoly.variable(i, 3, spec) for i in range(3))
    f = x2 * x3 ** 2
    g = x2 * (x2 ** 2 + lam * x3 ** 2)
    fr, gr = (p.restrict({0: 1}).rows(4) for p in (f, g))
    assert fr == [Poly.zero(spec)] * 2 + [Poly.one(spec), Poly.zero(spec)]
    assert gr == [Poly.one(spec), Poly.zero(spec), Poly.x(spec),
                  Poly.zero(spec)]
    assert sylvester_resultant(fr, gr, Poly.zero(spec)).is_zero()
    # the same cubic without the factor x2 (x3^3) meets g nowhere
    h = x3 ** 3
    assert not sylvester_resultant(h.restrict({0: 1}).rows(4), gr,
                                   Poly.zero(spec)).is_zero()
    # a term past the formal degree: the input was no cubic
    with pytest.raises(InconsistencyError):
        (f + x3 ** 4).restrict({0: 1}).rows(4)
