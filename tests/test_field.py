import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quartic_lines.field import (MAX_DEGREE, FieldError, FieldSpec, _deflate,
                                 _frobenius, _orbits_by_ddf, _prime_factors,
                                 _prime_step_embedding, all_orbits,
                                 find_roots_int, poly_add, poly_gcd,
                                 root_orbits)
from quartic_lines.poly import Poly

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


def test_embeddings_through_a_level_agree():
    # GF(q) -> GF(q^d) -> GF(q^(d e)) equals GF(q) -> GF(q^(d e)) for every
    # modulus of GF(q) and every d, e >= 2 up to GF(2^16), the levels
    # being default fields: `geometry.lift_tails` relies on it
    checked = 0
    for k in range(1, MAX_DEGREE // 4 + 1):
        for modulus in range(1 << k, 1 << (k + 1)):
            try:
                base = FieldSpec(k, modulus)
            except FieldError:
                continue
            for d in range(2, MAX_DEGREE // (2 * k) + 1):
                for e in range(2, MAX_DEGREE // (k * d) + 1):
                    mid = FieldSpec.default(k * d)
                    top = FieldSpec.default(k * d * e)
                    via = mid.embedding_to(top).apply_int(
                        base.embedding_to(mid).gen_image)
                    assert via == base.embedding_to(top).gen_image
                    checked += 1
    assert checked == 48


def test_degree_cap():
    with pytest.raises(Exception):
        FieldSpec.default(MAX_DEGREE + 1)


def test_element_wrappers():
    # g g^-1 = 1, g + g = 0 and g^q = g on the int-level kernels
    spec = FieldSpec.default(3)
    g = 0b10
    assert spec.mul_int(g, spec.inv_int(g)) == 1
    assert g ^ g == 0
    assert spec.pow_int(g, spec.size) == g  # x^q = x


def _find_roots_exhaustive(coeffs, spec):
    """The oracle: evaluate at every field element, then deflate."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    xs = np.arange(spec.size, dtype=np.uint32)
    vals = np.full(spec.size, np.uint32(cs[-1]))
    for c in reversed(cs[:-1]):
        vals = spec.mul_arr(vals, xs) ^ np.uint32(c)
    return _with_multiplicities(cs, np.nonzero(vals == 0)[0].tolist(), spec)


def _with_multiplicities(cs, roots, spec):
    out = []
    for r in sorted(roots):
        mult, work = 0, cs
        while len(work) > 1:
            quot, rem = _deflate(work, r, spec)
            if rem:
                break
            mult, work = mult + 1, quot
        out.append((r, mult))
    return out


def _find_roots_by_gcd(coeffs, spec):
    """The oracle at every field size: the gcd path (distinct-degree
    factorization with the cap 1) for every degree."""
    cs = Poly(spec, coeffs).coeffs
    zeros = next(i for i, c in enumerate(cs) if c)
    roots = _orbits_by_ddf(cs[zeros:], spec, [spec])[0].get(1, [])
    return _with_multiplicities(cs, roots + ([0] if zeros else []), spec)


def _root_orbits_by_ddf(coeffs, spec, cap):
    """The oracle for `root_orbits`: distinct-degree factorization for
    every degree."""
    k = spec.degree
    fields = [spec if d == 1 else FieldSpec.default(k * d)
              for d in range(1, min(cap, MAX_DEGREE // k) + 1)]
    cs = Poly(spec, coeffs).coeffs
    zeros = next(i for i, c in enumerate(cs) if c)
    found, rest = _orbits_by_ddf(cs[zeros:], spec, fields)
    if zeros:
        found.setdefault(1, []).append(0)
    return [(fld, sorted(found.get(d, []))) for d, fld in
            enumerate(fields, 1)], rest


def _random_poly(rng, spec, degree):
    return Poly(spec, [rng.randrange(spec.size) for _ in range(degree)] + [1])


@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_find_roots_matches_exhaustive_evaluation(k):
    spec = FieldSpec.default(k)
    rng = random.Random(1000 + k)
    x = Poly.x(spec)
    cases = []
    for trial in range(8):
        f = _random_poly(rng, spec, rng.randrange(0, 5))
        for _ in range(rng.randrange(0, 6)):     # repeated roots
            r = rng.randrange(spec.size)
            f = f * Poly(spec, [r, 1]) ** rng.randrange(1, 5)
        if trial % 2:
            f = f * x ** (trial // 2 + 1)        # the root 0
        if trial % 3 == 0:
            f = f * f                            # a perfect square: f' = 0
        cases.append(f)
    cases.append(Poly.constant(spec, 5 % spec.size or 1))
    for f in cases:
        assert find_roots_int(f.coeffs, spec) == \
            _find_roots_exhaustive(f.coeffs, spec), f


@pytest.mark.parametrize("k", [1, 2])
def test_find_roots_past_the_field_size(k):
    # multiples of x^q - x have every element as a root
    spec = FieldSpec.default(k)
    rng = random.Random(k)
    field_poly = Poly(spec, [0, 1]) + Poly.x(spec) ** spec.size
    for _ in range(10):
        f = field_poly * _random_poly(rng, spec, rng.randrange(0, 9))
        if rng.randrange(2):
            f = f * field_poly ** rng.randrange(1, 3)
        roots = find_roots_int(f.coeffs, spec)
        assert [r for r, _ in roots] == list(range(spec.size))
        assert roots == _find_roots_exhaustive(f.coeffs, spec)


def test_find_roots_rejects_the_zero_polynomial():
    with pytest.raises(FieldError):
        find_roots_int([0, 0], FieldSpec.default(3))


def test_prime_steps_embed_at_the_smallest_root():
    for m in range(2, MAX_DEGREE // 2 + 1):
        for n in range(2 * m, MAX_DEGREE + 1, m):
            if len(_prime_factors(n // m)) > 1:
                continue
            src, dst = FieldSpec.default(m), FieldSpec.default(n)
            modulus = [(src.modulus >> i) & 1 for i in range(m + 1)]
            smallest = _find_roots_exhaustive(modulus, dst)[0][0]
            assert _prime_step_embedding(src, dst).gen_image == smallest


def _orbit(spec, field, alpha):
    """The conjugates of alpha over spec, inside field."""
    out = [alpha]
    while True:
        nxt = field.pow_int(out[-1], spec.size)
        if nxt == alpha:
            return out
        out.append(nxt)


def _pull_back(poly, spec, field):
    """Coefficients of a polynomial over field that lie in spec's image."""
    emb = spec.embedding_to(field)
    inverse = {emb.apply_int(a): a for a in range(spec.size)}
    return Poly(spec, [inverse[c] for c in poly.coeffs])


@pytest.mark.parametrize("k,cap,degrees", [
    (1, 4, (1, 2, 3, 3, 5, 7, 7, 9, 16)),
    (2, 3, (1, 2, 2, 3, 4, 4, 5, 8)),
    (3, 2, (1, 2, 3, 5, 5)),
])
def test_root_orbits_reproduce_the_squarefree_part(k, cap, degrees):
    """f is a product of powers of x and of the minimal polynomials of
    distinct orbits of chosen degrees; the orbits up to the cap are listed
    in full, the product of the minimal polynomials past it is the rest,
    and together they make up the squarefree part."""
    spec = FieldSpec.default(k)
    rng = random.Random(k)
    f, squarefree = Poly.x(spec) ** 2, Poly.x(spec)
    past_cap = Poly.one(spec)
    chosen = {1: {0}}
    for d in degrees:
        field = spec if d == 1 else FieldSpec.default(k * d)
        while True:
            alpha = rng.randrange(1, field.size)
            orbit = _orbit(spec, field, alpha)
            if len(orbit) == d and alpha not in chosen.get(d, ()):
                break
        chosen.setdefault(d, set()).update(orbit)
        minpoly = Poly.one(field)
        for r in orbit:
            minpoly = minpoly * Poly(field, [r, 1])
        minpoly = _pull_back(minpoly, spec, field)
        f = f * minpoly ** rng.randrange(1, 4)
        squarefree = squarefree * minpoly
        if d > cap:
            past_cap = past_cap * minpoly
    levels, rest = root_orbits(f.coeffs, spec, cap)
    assert Poly(spec, rest) == past_cap
    product = Poly.one(spec)
    for d, (field, roots) in enumerate(levels, 1):
        assert field == (spec if d == 1 else FieldSpec.default(k * d))
        assert roots == sorted(chosen.get(d, ()))
        linear = Poly.one(field)
        for r in roots:
            linear = linear * Poly(field, [r, 1])
        product = product * _pull_back(linear, spec, field)
    assert squarefree == product * past_cap


def test_root_orbits_stop_at_gf65536():
    # t^5 + t^2 + 1 stays irreducible over GF(16): degrees 5 and 4 are coprime
    levels, rest = root_orbits([1, 0, 1, 0, 0, 1], FieldSpec.default(4), 6)
    assert [roots for _, roots in levels] == [[]] * 4
    assert rest == [1, 0, 1, 0, 0, 1]


def _mobius(n):
    primes = _prime_factors(n)
    return 0 if len(set(primes)) < len(primes) else (-1) ** len(primes)


@pytest.mark.parametrize("k", [1, 2])
def test_all_orbits_partition_each_level(k):
    # the roots of the zero polynomial: every element, at its own degree
    spec = FieldSpec.default(k)
    levels = all_orbits(spec, 20)
    assert len(levels) == MAX_DEGREE // k
    q = spec.size
    for d, (field, roots) in enumerate(levels, 1):
        assert field == spec.level(d)
        assert len(roots) == sum(_mobius(d // e) * q ** e
                                 for e in range(1, d + 1) if d % e == 0)
        assert roots == sorted(set(roots))
        assert all(0 <= r < field.size for r in roots)
    # embedded into GF(q^n), the levels d | n are disjoint and cover it
    for n, (big, _) in enumerate(levels, 1):
        seen = []
        for d, (field, roots) in enumerate(levels[:n], 1):
            if n % d == 0:
                emb = field.embedding_to(big)
                seen += [emb.apply_int(r) for r in roots]
        assert sorted(seen) == list(range(big.size))


def _is_irreducible(f, spec):
    """Ben-Or's test: squarefree f of degree n is irreducible iff
    gcd(f, x^(q^i) - x) = 1 for every i <= n / 2."""
    h = x = [0, 1]
    for _ in range(f.degree() // 2):
        h = _frobenius(h, f.coeffs, spec)
        if poly_gcd(f.coeffs, poly_add(h, x), spec) != [1]:
            return False
    return True


def _irreducible(rng, spec, degree, avoid=()):
    """A random monic irreducible polynomial of the given degree."""
    while True:
        f = _random_poly(rng, spec, degree)
        if _is_irreducible(f, spec) and f not in avoid:
            return f


def _small_cases(rng, spec):
    """Polynomials whose part without the root 0 has degree 1..4, by kind."""
    x = Poly.x(spec)
    lin = lambda: Poly(spec, [rng.randrange(spec.size), 1])
    q1 = _irreducible(rng, spec, 2)
    q2 = _irreducible(rng, spec, 2, () if spec.degree == 1 else (q1,))
    cubic = _irreducible(rng, spec, 3)
    return {
        "linear": lin(),
        "double root": lin() ** 2,
        "perfect square": x ** 2 + Poly.constant(
            spec, rng.randrange(1, spec.size)),
        "two roots": lin() * lin(),
        "irreducible quadratic": q1,
        "irreducible cubic": cubic,
        "triple root": lin() ** 3,
        "root and pair": lin() * q1,
        "random cubic": _random_poly(rng, spec, 3),
        "irreducible quartic": _irreducible(rng, spec, 4),
        "two conjugate pairs": q1 * q2,
        "square of a pair": q1 * q1,
        "root and cubic orbit": lin() * cubic,
        "double root and pair": lin() ** 2 * q1,
        "triple and simple root": lin() ** 3 * lin(),
        "fourth power": lin() ** 4,
        "random quartic": _random_poly(rng, spec, 4),
        "root 0 and quartic": x ** 3 * _random_poly(rng, spec, 4),
        "root 0 and pair": x * q1,
    }


@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_small_degrees_match_the_gcd_path(k):
    """Degree <= 4 away from the root 0 goes through one GF(2)-affine
    solve; it agrees with the gcd path, with distinct-degree factorization
    at caps 1-4 and, up to GF(256), with evaluation at every element."""
    spec = FieldSpec.default(k)
    rng = random.Random(2000 + k)
    for kind, f in _small_cases(rng, spec).items():
        f = f * Poly.constant(spec, rng.randrange(1, spec.size))
        roots = find_roots_int(f.coeffs, spec)
        assert roots == _find_roots_by_gcd(f.coeffs, spec), kind
        if k <= 8:
            assert roots == _find_roots_exhaustive(f.coeffs, spec), kind
        for cap in range(1, 5):
            assert root_orbits(f.coeffs, spec, cap) == \
                _root_orbits_by_ddf(f.coeffs, spec, cap), (kind, cap)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_small_orbits_by_kind(k):
    spec = FieldSpec.default(k)
    cases = _small_cases(random.Random(3000 + k), spec)
    sizes = lambda kind: [len(roots) for _, roots in
                          root_orbits(cases[kind].coeffs, spec, 4)[0]]
    assert sizes("irreducible quartic") == [0, 0, 0, 4]
    assert sizes("square of a pair") == [0, 2, 0, 0]
    assert sizes("two conjugate pairs") == [0, 2 if k == 1 else 4, 0, 0]
    assert sizes("root and cubic orbit") == [1, 0, 3, 0]


@pytest.mark.parametrize("k", [9, 12, 16])
def test_quartics_past_gf_q2_leave_their_rest_unsplit(k):
    # with GF(q^2) past GF(2^16) the cap is 1 at any requested cap: what
    # has no rational root is the rest, monic and squarefree
    spec = FieldSpec.default(k)
    cases = _small_cases(random.Random(4000 + k), spec)
    square = cases["square of a pair"]
    with_root = cases["root and cubic orbit"]
    root = find_roots_int(with_root.coeffs, spec)[0][0]
    for kind, rest in [
            ("irreducible quartic", cases["irreducible quartic"]),
            ("two conjugate pairs", cases["two conjugate pairs"]),
            ("square of a pair",
             Poly(spec, [spec.sqrt_int(c) for c in square.coeffs[::2]])),
            ("root and cubic orbit", with_root // Poly(spec, [root, 1]))]:
        scaled = cases[kind] * Poly.constant(spec, 1 << (k - 1))
        levels, got = root_orbits(scaled.coeffs, spec, 4)
        assert len(levels) == 1 and Poly(spec, got) == rest, kind


@pytest.mark.parametrize("k", [1, 2, 6, 16])
def test_array_kernels_match_the_scalar_ones(k):
    # mul_arr's one gather through the zero sentinel and pow_arr's masked
    # power agree with mul_int and pow_int element by element: zeros,
    # e = 0, a scalar times an array and a column times a row included
    spec = FieldSpec.default(k)
    rng = np.random.default_rng(k)
    xs = rng.integers(0, spec.size, 40, dtype=np.uint32)
    ys = rng.integers(0, spec.size, 30, dtype=np.uint32)
    xs[:2] = ys[:2] = 0, 1
    table = spec.mul_arr(xs[:, None], ys[None, :])
    assert table.dtype == np.uint32 and table.shape == (40, 30)
    assert table.tolist() == [[spec.mul_int(a, b) for b in ys.tolist()]
                              for a in xs.tolist()]
    for c in {0, 1, spec.order}:
        want = [spec.mul_int(a, c) for a in xs.tolist()]
        assert spec.mul_arr(xs, c).tolist() == want
        assert spec.mul_arr(np.uint32(c), xs).tolist() == want
    for e in (0, 1, 2, 3, 4, spec.order, spec.order + 1, 3 * spec.size):
        assert spec.pow_arr(xs, e).tolist() == \
            [spec.pow_int(a, e) for a in xs.tolist()]


def test_gf65536_scalar_tables_stay_free_of_the_sentinel():
    # the array kernels' tables, built first, leave the 2-byte scalar
    # tables as a field that never ran an array kernel builds them
    spec, fresh = FieldSpec(16), FieldSpec(16)
    spec.mul_arr(np.arange(4, dtype=np.uint32), 3)
    rng = random.Random(16)
    for _ in range(200):
        a, b = rng.randrange(1, spec.size), rng.randrange(spec.size)
        e = rng.randrange(-spec.size, 2 * spec.size)
        assert spec.mul_int(a, b) == spec.clmul_int(a, b)
        assert spec.clmul_int(a, spec.inv_int(a)) == 1
        assert spec.pow_int(a, e) == fresh.pow_int(a, e)
        assert spec.pow_int(0, abs(e) + 1) == 0
    assert spec._logs == fresh._logs and spec._exps == fresh._exps
