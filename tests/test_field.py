import pytest
from hypothesis import given, strategies as st

from quartic_lines.field import MAX_DEGREE, FieldSpec

SPECS = [FieldSpec.default(k) for k in (1, 2, 3, 4, 8)]


def spec_and_elems(n):
    return st.one_of([
        st.tuples(st.just(s), *[st.integers(0, s.size - 1)] * n)
        for s in SPECS])


@given(spec_and_elems(3))
def test_mul_ring_axioms(t):
    spec, a, b, c = t
    m = spec.mul_int
    assert m(a, b) == m(b, a)
    assert m(a, m(b, c)) == m(m(a, b), c)
    assert m(a, b ^ c) == m(a, b) ^ m(a, c)
    assert m(a, 1) == a
    assert m(a, 0) == 0


@given(spec_and_elems(1))
def test_inverse_and_sqrt(t):
    spec, a = t
    if a:
        assert spec.mul_int(a, spec.inv_int(a)) == 1
    r = spec.sqrt_int(a)
    assert spec.mul_int(r, r) == a


@given(spec_and_elems(1))
def test_frobenius_is_additive(t):
    spec, a = t
    b = spec.size - 1 - a
    sq = lambda x: spec.mul_int(x, x)
    assert sq(a ^ b) == sq(a) ^ sq(b)


@pytest.mark.parametrize("src,dst", [(1, 2), (2, 4), (1, 4), (2, 8),
                                     (4, 8), (3, 12), (4, 16)])
def test_embedding_is_a_homomorphism(src, dst):
    s, t = FieldSpec.default(src), FieldSpec.default(dst)
    emb = s.embedding_to(t)
    for a in range(s.size):
        for b in range(0, s.size, max(1, s.size // 8)):
            assert emb.apply_int(s.mul_int(a, b)) == \
                t.mul_int(emb.apply_int(a), emb.apply_int(b))
            assert emb.apply_int(a ^ b) == emb.apply_int(a) ^ emb.apply_int(b)
    assert emb.apply_int(1) == 1


def test_embedding_tower_compatibility():
    a, b, c = (FieldSpec.default(k) for k in (2, 4, 8))
    direct = a.embedding_to(c)
    via = a.embedding_to(b)
    top = b.embedding_to(c)
    for x in range(a.size):
        assert direct.apply_int(x) == top.apply_int(via.apply_int(x))


def test_degree_cap():
    with pytest.raises(Exception):
        FieldSpec.default(MAX_DEGREE + 1)


def test_element_wrappers():
    spec = FieldSpec.default(3)
    g = spec.gen
    assert (g * g.inverse()) == spec.one
    assert (g + g) == spec.zero
    assert (g ** spec.size + g) == spec.zero  # x^q = x
