import itertools
import random
from collections import Counter

import pytest

from quartic_lines.errors import CapabilityError, UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import (Line, QuarticSurface,
                                    _candidate_tails,
                                    _singular_points_direct,
                                    _singular_points_elimination,
                                    _x1_resultants, _x3_eliminant,
                                    axis_line, count_candidate_lines,
                                    detect_configurations, enumerate_lines,
                                    lines_meet, mat_rank, normalize_line,
                                    orbit, rref, singular_point_search,
                                    square_fibration_partition,
                                    surface_preserved_by)
from quartic_lines.poly import SparsePoly
from quartic_lines.surfaces import (get_surface, s5_generators,
                                    schur_char2_surface, z0_surface)

QUARTIC_MONOMIALS = [(a, b, c, 4 - a - b - c) for a in range(5)
                     for b in range(5 - a) for c in range(5 - a - b)]


def test_candidate_line_counts():
    assert count_candidate_lines(2) == 35
    assert count_candidate_lines(4) == 357
    assert count_candidate_lines(16) == 70161


def test_line_canonical_form_and_json_roundtrip(gf4):
    ln = Line(gf4, [(1, 2, 3, 0), (0, 1, 1, 2)])
    back = Line.from_json(ln.to_json(), gf4)
    assert back.rows == ln.rows and back.spec == ln.spec


def test_lines_meet(gf4):
    l1 = axis_line(gf4)                       # x3 = x4 = 0
    l2 = Line(gf4, [(1, 0, 0, 0), (0, 0, 1, 0)])   # x2 = x4 = 0
    pt = lines_meet(l1, l2)
    assert pt is not None
    l3 = Line(gf4, [(1, 0, 0, 1), (0, 1, 1, 0)])
    # skew check is symmetric
    assert (lines_meet(l1, l3) is None) == (lines_meet(l3, l1) is None)


def test_surface_rejects_non_quartic(gf4):
    x = [SparsePoly.variable(i, 4, gf4) for i in range(4)]
    with pytest.raises(UsageError):
        QuarticSurface(x[0] * x[1] * x[2])
    with pytest.raises(UsageError):
        QuarticSurface((x[0] + x[1]) ** 4)


def test_fourth_power_diagnostic(gf2):
    with pytest.raises(UsageError, match="4th power"):
        get_surface("fermat_char2")


def test_schur_surface_is_singular():
    pts = singular_point_search(schur_char2_surface(), max_ext=2)
    assert ((1, 0, 1, 0), 1) in [(p.point, p.ext) for p in pts]


def _singular_quartic(spec, rng):
    """A dense random quartic singular at [0:0:0:1] (no monomial of degree
    >= 3 in x4), moved by a random invertible change of coordinates."""
    terms = {e: rng.randrange(spec.size) for e in QUARTIC_MONOMIALS
             if e[3] <= 2}
    surf = QuarticSurface(SparsePoly(4, spec, terms), check=False)
    while True:
        m = [[rng.randrange(spec.size) for _ in range(4)] for _ in range(4)]
        if mat_rank(m, spec) == 4:
            return surf.transform(m)


@pytest.mark.parametrize("k,count", [(4, 3), (6, 2)])
def test_elimination_matches_direct_scan(k, count):
    spec = FieldSpec.default(k)
    rng = random.Random(f"singular:{k}")
    for _ in range(count):
        surf = _singular_quartic(spec, rng)
        forms = [surf.f] + surf.partials()
        rs = _x1_resultants(forms)
        s = _x3_eliminant(rs)
        assert s is not None and _candidate_tails(rs, s) is not None
        direct = sorted(set(_singular_points_direct(forms, spec)))
        assert len(direct) >= 1
        assert _singular_points_elimination(forms, rs, s, spec) == direct


def _gf4_quartic_singular_at(seed):
    """A dense GF(4) quartic singular at a random point P of P^3(GF(256)):
    f(P) = 0 and grad f(P) = 0 are GF(256)-linear in the coefficients,
    split into GF(4)-linear equations along the basis 1, t, t^2, t^3."""
    gf4, big = FieldSpec.default(2), FieldSpec.default(8)
    emb = gf4.embedding_to(big)
    rng = random.Random(seed)
    coords = {}
    for a in itertools.product(range(4), repeat=4):
        v = 0
        for j, aj in enumerate(a):
            v ^= big.mul_int(emb.apply_int(aj), big.pow_int(2, j))
        coords[v] = a
    pt = [rng.randrange(big.size) for _ in range(4)]
    rows = [[] for _ in range(20)]
    for e in QUARTIC_MONOMIALS:
        mono = SparsePoly(4, big, {e: 1})
        vals = [mono.evaluate(pt)] + [mono.derivative(i).evaluate(pt)
                                      for i in range(4)]
        for r, v in enumerate(vals):
            for j, a in enumerate(coords[v]):
                rows[4 * r + j].append(a)
    red, pivots = rref(rows, gf4)
    c = [0] * len(QUARTIC_MONOMIALS)
    free = [i for i in range(len(c)) if i not in pivots]
    for i in free:
        c[i] = rng.randrange(4)
    for i, p in enumerate(pivots):
        for j in free:
            c[p] ^= gf4.mul_int(red[i][j], c[j])
    return QuarticSurface(SparsePoly(4, gf4, dict(zip(QUARTIC_MONOMIALS, c))))


def test_singular_orbit_first_seen_over_gf256():
    surf = _gf4_quartic_singular_at(0)
    assert len(surf.f.terms) == 23
    pts = singular_point_search(surf, max_ext=4)
    # the Frobenius orbit of P over GF(4), as the grid scan listed it
    assert [(p.point, p.ext) for p in pts] == [
        ((1, 92, 139, 168), 4), ((1, 92, 219, 21), 4),
        ((1, 93, 127, 249), 4), ((1, 93, 146, 68), 4)]


def test_singular_along_a_conic_falls_back_to_the_grid(gf2):
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    a = x[1] + x[2]
    b = x[0] * x[3] + x[2] ** 2 + x[1] * x[3]
    # in (a, b)^2: singular along the conic {a = b = 0}
    f = a ** 2 * (x[0] ** 2 + x[3] ** 2) + a * b * x[0] + b ** 2
    surf = QuarticSurface(f)
    rs = _x1_resultants([f] + surf.partials())
    assert _x3_eliminant(rs) is None
    pts = singular_point_search(surf, max_ext=7)
    on_conic = [p for p in pts
                if not any(g.embed(gf2.embedding_to(p.spec)).evaluate(p.point)
                           for g in (a, b))]
    assert [p.point for p in pts if p not in on_conic] == [(0, 1, 0, 0)]
    # the conic has 2^m + 1 points over GF(2^m); each is listed at the
    # smallest level that holds it
    new = {1: 3, 2: 2, 3: 6, 4: 12, 5: 30, 6: 54, 7: 126}
    assert Counter(p.ext for p in on_conic) == new


def test_z0_certificate_reaches_gf65536():
    assert singular_point_search(z0_surface(), max_ext=8) == []


def test_search_past_the_field_cap_is_refused():
    with pytest.raises(CapabilityError, match="2\\^16"):
        singular_point_search(z0_surface(), max_ext=9)


def test_transform_respects_composition(gf4):
    surf = get_surface("z0")
    m = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    twice = surf.transform(m).transform(m)
    mm = [[sum_mul(gf4, m, m, i, j) for j in range(4)] for i in range(4)]
    assert twice.f == surf.transform(mm).f


def sum_mul(spec, a, b, i, j):
    out = 0
    for k in range(4):
        out ^= spec.mul_int(a[i][k], b[k][j])
    return out


def test_enumerate_lines_gf2_matches_brute_force(gf2):
    # x1*x2^3 + x2*x1^3 + x3*x4^3 + x4*x3^3 over GF(2)
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    f = x[0] * x[1] ** 3 + x[1] * x[0] ** 3 + x[2] * x[3] ** 3 \
        + x[3] * x[2] ** 3
    surf = QuarticSurface(f)
    lines = enumerate_lines(surf, ext=1)
    assert len(lines) == len({ln.rows for ln in lines})
    for ln in lines:
        assert surf.contains_line(ln)
    # census can never exceed the candidate count
    assert len(lines) <= count_candidate_lines(2)


def test_normalize_line_moves_line_to_axis(gf4):
    surf = get_surface("z0")
    lines = enumerate_lines(surf, ext=1)
    target = next(ln for ln in lines if ln.rows != axis_line(gf4).rows)
    t, sprime = normalize_line(surf, target)
    axis = axis_line(gf4)
    assert sprime.contains_line(axis)


def test_s5_symmetry_preserves_surface(s5_surface):
    for gen in s5_generators(s5_surface.spec):
        assert surface_preserved_by(s5_surface, gen)


def test_orbit_closure_under_group(s5_surface, s5_lines):
    gens = s5_generators(s5_surface.spec)
    seed = s5_lines[0]
    orb = orbit(seed, gens, s5_surface)
    keys = {ln.rows for ln in orb}
    assert {ln.rows for ln in s5_lines} >= keys
    assert len(orb) >= 1


def test_configuration_trichotomy(s5_graph):
    rep = detect_configurations(s5_graph)
    assert rep.case in ("triangle-case", "square-case", "squarefree-case")
    for (i, j, k) in rep.triangles + rep.stars:
        assert s5_graph.adj[i, j] and s5_graph.adj[i, k] \
            and s5_graph.adj[j, k]
    for (i, j, k, l) in rep.squares:
        assert s5_graph.adj[i, j] and s5_graph.adj[j, k]
        assert s5_graph.adj[k, l] and s5_graph.adj[l, i]
        assert not s5_graph.adj[i, k] and not s5_graph.adj[j, l]


def test_square_partition_bound(s5_graph):
    rep = detect_configurations(s5_graph)
    if not rep.squares:
        pytest.skip("no squares on this surface")
    part = square_fibration_partition(s5_graph, rep.squares[0])
    n_other = len(s5_graph) - 4
    assert sum(len(v) for v in part.classes.values()) == n_other
    assert part.valency_sum_cap <= 40
    with pytest.raises(UsageError):
        square_fibration_partition(s5_graph, (0, 0, 1, 2))


def test_smooth_census_valencies_match_graph(s5_graph):
    vals = s5_graph.valencies()
    assert len(vals) == len(s5_graph)
    assert all(0 <= v < len(s5_graph) for v in vals)
