from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quartic_lines.field import FieldSpec
from quartic_lines.poly import (Poly, SparsePoly, binary_roots, det_generic,
                                divide_by_linear, squarefree_test,
                                sylvester_matrix, sylvester_resultant)

SPEC16 = FieldSpec.default(4)
SPEC8 = FieldSpec.default(3)
SPEC4 = FieldSpec.default(2)


def polys(spec, max_deg=5):
    return st.lists(st.integers(0, spec.size - 1),
                    max_size=max_deg + 1).map(lambda c: Poly(spec, c))


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


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(SPEC16, 2), min_size=2, max_size=4),
       st.lists(polys(SPEC16, 2), min_size=2, max_size=4))
def test_poly_resultant_matches_generic_expansion(f, g):
    # binary forms over GF(16)[lambda]: the fraction-free elimination used
    # for Poly entries agrees with the division-free expansion
    zero = Poly.zero(SPEC16)
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
    assert g.reduce_mod2(SPEC4).terms == {(3, 0): 1, (2, 1): 1,
                                          (1, 2): 1, (0, 3): 1}


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


def test_reverse_and_compose():
    f = Poly(SPEC4, [1, 0, 2])       # 2x^2 + 1
    assert f.reverse(2) == Poly(SPEC4, [2, 0, 1])
    assert f.reverse(3) == Poly(SPEC4, [0, 2, 0, 1])
    shift = Poly(SPEC4, [1, 1])      # x + 1
    g = f.compose(shift)
    for v in range(4):
        assert g.eval_int(v) == f.eval_int(v ^ 1)
