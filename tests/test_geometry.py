import itertools
import random
from collections import Counter

import numpy as np
import pytest
from test_acceptance import SEED, _random_smooth_surface_with_line

from quartic_lines import geometry, surfaces
from quartic_lines.errors import CapabilityError, UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import (SCHUBERT_CELLS, IntersectionGraph,
                                    Line, QuarticSurface,
                                    _cell_free_positions, _chart,
                                    canonical_point, centred_frames,
                                    _eval_on_grid, _points_in_frame,
                                    axis_line, count_candidate_lines,
                                    detect_configurations, eliminant,
                                    enumerate_lines,
                                    first_variable_conditions,
                                    mat_rank, normalize_line,
                                    orbit, restrict_form, rref,
                                    singular_point_search,
                                    square_fibration_partition,
                                    surface_preserved_by)
from quartic_lines.poly import Poly, SparsePoly, sylvester_resultant
from quartic_lines.surfaces import (get_surface, s5_generators,
                                    schur_char2_surface, z0_surface)

QUARTIC_MONOMIALS = [(a, b, c, 4 - a - b - c) for a in range(5)
                     for b in range(5 - a) for c in range(5 - a - b)]
# quartic monomials vanishing on the axis line {x3 = x4 = 0}
AXIS_MONOMIALS = [e for e in QUARTIC_MONOMIALS if e[2] + e[3] >= 1]
# the four fixed GF(2) frames the singular-point search once tried, the
# identity first: test data for frames that degenerate
_FRAMES = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
    ((1, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)),
    ((0, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1)),
)


def test_candidate_line_counts():
    assert count_candidate_lines(2) == 35
    assert count_candidate_lines(4) == 357
    assert count_candidate_lines(16) == 70161


def test_line_canonical_form_and_json_roundtrip(gf4):
    ln = Line(gf4, [(1, 2, 3, 0), (0, 1, 1, 2)])
    back = Line.from_json(ln.to_json(), gf4)
    assert back.rows == ln.rows and back.spec == ln.spec


def _kernel_vector(rows, spec):
    """One nonzero kernel vector of the matrix (rows act on column
    vectors), or None if the kernel is trivial."""
    red, pivots = rref(rows, spec)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    c = free[0]
    v = [0] * ncols
    v[c] = 1
    for i, p in enumerate(pivots):
        v[p] = red[i][c]  # char 2: -x = x
    return v


def _lines_meet(l1, l2):
    """The former pair test of `IntersectionGraph`, kept as oracle: the
    point where two distinct lines meet, or None, from a kernel relation
    a r1 + b r2 + c s1 + d s2 = 0 between the two bases (rank 3)."""
    spec = l1.spec
    stacked = [*l1.rows, *l2.rows]
    cols = [[stacked[j][i] for j in range(4)] for i in range(4)]
    v = _kernel_vector(cols, spec)
    if v is None:
        return None
    mul = spec.mul_int
    pt = tuple(mul(v[0], x) ^ mul(v[1], y)
               for x, y in zip(l1.rows[0], l1.rows[1]))
    assert any(pt)
    return canonical_point(pt, spec)


def _pairwise_points(lines):
    """Every meeting pair of the lines and its point, by the oracle."""
    out = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        pt = _lines_meet(lines[i], lines[j])
        if pt is not None:
            out[i, j] = pt
    return out


def test_lines_meet(gf4):
    l1 = axis_line(gf4)                       # x3 = x4 = 0
    l2 = Line(gf4, [(1, 0, 0, 0), (0, 0, 1, 0)])   # x2 = x4 = 0
    l3 = Line(gf4, [(1, 0, 0, 1), (0, 1, 1, 0)])
    graph = IntersectionGraph([l1, l2, l3])
    assert graph.point(0, 1) == graph.point(1, 0) == (1, 0, 0, 0)
    # the skew check is symmetric
    assert graph.adj[0, 2] == graph.adj[2, 0]
    assert graph.points == _pairwise_points([l1, l2, l3])
    with pytest.raises(UsageError):
        IntersectionGraph([l1, l2, l1])
    with pytest.raises(UsageError):
        IntersectionGraph([l1, axis_line(FieldSpec.default(4))])


@pytest.mark.parametrize("make, ext", [
    pytest.param(surfaces.s5_mu0_surface, 2, id="record"),
    pytest.param(surfaces.family_x_surface, 6, id="family-x"),
    pytest.param(z0_surface, 1, id="z0")])
def test_intersection_graph_matches_the_pair_oracle(make, ext):
    lines = enumerate_lines(make(), ext=ext)
    graph = IntersectionGraph(lines)
    want = _pairwise_points(lines)
    assert graph.points == want
    assert {tuple(ij) for ij in np.argwhere(np.triu(graph.adj))} == set(want)
    assert (graph.adj == graph.adj.T).all() and not graph.adj.diagonal().any()


@pytest.mark.parametrize("k", [2, 4])
def test_intersection_graph_of_random_line_pairs(k):
    # random lines, and for each a second line through a random point of
    # it, so the pairs both meet and miss; each pair is its own graph
    spec = FieldSpec.default(k)
    rng = random.Random(f"graph-pairs:{k}")

    def draw(first_row=None):
        while True:
            rows = [first_row or [rng.randrange(spec.size) for _ in range(4)],
                    [rng.randrange(spec.size) for _ in range(4)]]
            if mat_rank(rows, spec) == 2:
                return Line(spec, rows)

    meeting = 0
    for _ in range(200):
        first = draw()
        s, t = rng.randrange(spec.size), rng.randrange(1, spec.size)
        on = [spec.mul_int(s, x) ^ spec.mul_int(t, y)
              for x, y in zip(*first.rows)]
        second = draw(on if rng.random() < 0.5 else None)
        if second == first:
            continue
        lines = [first, second]
        graph = IntersectionGraph(lines)
        assert graph.points == _pairwise_points(lines)
        meeting += bool(graph.points)
    assert 60 < meeting < 180


def _restrict_by_expansion(form, p1, p2):
    """The former `restrict_form`: each term's product of linear factors
    s*p1[i] + t*p2[i] multiplied out by hand, s-major."""
    mul = form.spec.mul_int
    out = [0] * (form.total_degree() + 1)
    for e, c in form.terms.items():
        factor = [c]
        for i, k in enumerate(e):
            for _ in range(k):
                nxt = [0] * (len(factor) + 1)
                for j, fc in enumerate(factor):
                    if fc:
                        nxt[j] ^= mul(fc, p1[i])
                        nxt[j + 1] ^= mul(fc, p2[i])
                factor = nxt
        for j, fc in enumerate(factor):
            out[j] ^= fc
    return out


def test_restrict_form_matches_the_expansion():
    rng = random.Random(5)
    for k, nvars, deg in itertools.product((1, 2, 8), (3, 4), range(1, 5)):
        spec = FieldSpec.default(k)
        monos = [e for e in itertools.product(range(deg + 1), repeat=nvars)
                 if sum(e) == deg]
        for _ in range(6):
            form = SparsePoly(nvars, spec, {
                e: rng.randrange(1, spec.size)
                for e in rng.sample(monos, rng.randint(1, len(monos)))})
            p1, p2 = ([rng.randrange(spec.size) for _ in range(nvars)]
                      for _ in range(2))
            assert restrict_form(form, p1, p2) == \
                _restrict_by_expansion(form, p1, p2), (form, p1, p2)


def test_surface_rejects_non_quartic(gf4):
    x = [SparsePoly.variable(i, 4, gf4) for i in range(4)]
    with pytest.raises(UsageError):
        QuarticSurface(x[0] * x[1] * x[2])
    with pytest.raises(UsageError):
        QuarticSurface((x[0] + x[1]) ** 4)


@pytest.mark.parametrize("k", [8, 12, 16])
def test_record_surface_over_a_large_field_passes_the_squarefree_check(k):
    record = get_surface("s5_mu0")
    big = FieldSpec.default(k)
    f = record.f.embed(record.spec.embedding_to(big))
    assert QuarticSurface(f, "s5_mu0").spec == big


def test_surface_with_a_repeated_plane_over_gf256_names_it():
    spec = FieldSpec.default(8)
    x = [SparsePoly.variable(i, 4, spec) for i in range(4)]
    ell = x[0] + x[2].scale(0x35)
    with pytest.raises(UsageError, match="not squarefree"):
        QuarticSurface(ell * ell * (x[1] * x[3] + x[0] * x[2].scale(7)))


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


def _forms(surf):
    """The surface's form and its four partials."""
    return [surf.f] + surf.partials()


def _singular_points_direct(forms, spec):
    """The common zeros of the forms by evaluation on every point of
    P^3(GF(q)), chart by chart: the oracle for the elimination."""
    q = spec.size
    found = []
    for chart in range(4):
        coords = [c.ravel() for c in np.broadcast_arrays(
            *_chart(chart, range(chart + 1, 4), q))]
        mask = np.ones(coords[0].shape, dtype=bool)
        for g in forms:
            if g.is_zero():
                continue
            mask &= _eval_on_grid(g, coords, spec) == 0
            if not mask.any():
                break
        for i in np.nonzero(mask)[0].tolist():
            found.append(tuple(int(coords[c][i]) for c in range(4)))
    return found


def _refuse_listing(*args):
    raise AssertionError("listing every point")


@pytest.mark.parametrize("k,count", [(4, 3), (6, 2)])
def test_elimination_matches_direct_scan(k, count, monkeypatch):
    # the rational points of the identity frame, through S and without
    # listing a curve
    monkeypatch.setattr(geometry, "all_orbits", _refuse_listing)
    spec = FieldSpec.default(k)
    rng = random.Random(f"singular:{k}")
    for _ in range(count):
        surf = _singular_quartic(spec, rng)
        direct = sorted(set(_singular_points_direct(_forms(surf), spec)))
        assert len(direct) >= 1
        assert sorted(_points_in_frame(_forms(surf), _FRAMES[0], 1,
                                       False)) == [(pt, 1) for pt in direct]


def _gf4_quartic_singular_at(rng, big, pt):
    """A dense GF(4) quartic singular at the point pt of P^3(big), big =
    GF(4^m): f(pt) = 0 and grad f(pt) = 0 are big-linear in the
    coefficients, split into GF(4)-linear equations along the basis
    1, t, ..., t^(m-1)."""
    gf4 = FieldSpec.default(2)
    emb = gf4.embedding_to(big)
    m = big.degree // 2
    coords = {}
    for a in itertools.product(range(4), repeat=m):
        v = 0
        for j, aj in enumerate(a):
            v ^= big.mul_int(emb.apply_int(aj), big.pow_int(2, j))
        coords[v] = a
    rows = [[] for _ in range(5 * m)]
    for e in QUARTIC_MONOMIALS:
        mono = SparsePoly(4, big, {e: 1})
        vals = [mono.evaluate(pt)] + [mono.derivative(i).evaluate(pt)
                                      for i in range(4)]
        for r, v in enumerate(vals):
            for j, a in enumerate(coords[v]):
                rows[m * r + j].append(a)
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
    big = FieldSpec.default(8)
    rng = random.Random(0)
    surf = _gf4_quartic_singular_at(
        rng, big, [rng.randrange(big.size) for _ in range(4)])
    assert len(surf.f.terms) == 23
    pts = singular_point_search(surf, max_ext=4)
    # the Frobenius orbit of P over GF(4), as the grid scan listed it
    assert [(p.point, p.ext) for p in pts] == [
        ((1, 92, 139, 168), 4), ((1, 92, 219, 21), 4),
        ((1, 93, 127, 249), 4), ((1, 93, 146, 68), 4)]


@pytest.mark.parametrize("x2_degree", [3, 6])
def test_degree_6_orbit_through_a_degree_3_direction(x2_degree,
                                                     monkeypatch):
    # a GF(4) quartic singular at P = (x1 : x2 : x3 : 1) of degree 6 with
    # x3 of degree 3: the identity frame reaches P from a direction of
    # degree 3 lifted by e = 2, to P^2 when x2 has degree 6, else to P^3
    monkeypatch.setattr(geometry, "all_orbits", _refuse_listing)
    gf4, big = FieldSpec.default(2), FieldSpec.default(12)
    rng = random.Random(f"orbit-3x2-1:{x2_degree}")

    def of_degree(n):
        while True:
            x = rng.randrange(big.size)
            if all(big.pow_int(x, 4 ** d) != x for d in range(1, n)
                   if 6 % d == 0) and big.pow_int(x, 4 ** n) == x:
                return x

    pt = [of_degree(6), of_degree(x2_degree), of_degree(3), 1]
    surf = _gf4_quartic_singular_at(rng, big, pt)
    conjugates = {canonical_point([big.pow_int(c, 4 ** j) for c in pt],
                                  big) for j in range(6)}
    forms = [g.embed(gf4.embedding_to(big)) for g in _forms(surf)]
    assert all(g.evaluate(list(q)) == 0 for g in forms for q in conjugates)
    assert conjugates <= {q for q, n in _points_in_frame(_forms(surf),
                                                       _FRAMES[0], 6, True)
                          if n == 6}
    assert conjugates <= {p.point for p in singular_point_search(surf, 6)
                          if p.ext == 6 and p.spec == big}


def _conic_surface():
    """A GF(2) quartic in (a, b)^2, singular along the conic {a = b = 0}."""
    gf2 = FieldSpec.default(1)
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    a = x[1] + x[2]
    b = x[0] * x[3] + x[2] ** 2 + x[1] * x[3]
    f = a ** 2 * (x[0] ** 2 + x[3] ** 2) + a * b * x[0] + b ** 2
    return QuarticSurface(f), a, b


def test_eliminant_takes_a_pure_condition_or_the_first_nonzero_resultant(
        gf4):
    # rows of binary forms in (w : x2) with entries in GF(4)[x3]
    zero, one, t = Poly.zero(gf4), Poly.one(gf4), Poly.x(gf4)
    a = [one, t]                        # w + x3 x2
    b = [t, t * t]                      # x3 (w + x3 x2): a root shared with a
    c = [one, one + t.scale(2)]         # w + (1 + u x3) x2, u^2 = u + 1
    assert sylvester_resultant(a, b, zero).is_zero()
    want = sylvester_resultant(a, c, zero)
    assert not want.is_zero()
    # the first pair's resultant vanishes, so the next pair's is taken
    assert eliminant([a, b, c]) == want
    # a condition free of the eliminated variable is its own eliminant
    pure = [t * t + one]
    assert eliminant([a, b, pure]) == pure[0]
    assert eliminant([pure, a]) == pure[0]
    # fewer than two conditions, or no nonzero resultant: no eliminant
    assert eliminant([]) is None
    assert eliminant([a]) is None
    assert eliminant([pure]) is None
    assert eliminant([a, b]) is None


def test_singular_along_a_conic_is_listed_by_its_directions(gf2,
                                                            monkeypatch):
    # S vanishes identically in the identity frame: the listing pass takes
    # every direction (x3 : x4) up to GF(2^7) as a root
    surf, a, b = _conic_surface()
    conds = itertools.islice(
        first_variable_conditions([surf.f] + surf.partials()), 2)
    assert eliminant([r.restrict({2: 1}).rows(r.degree_in(0) + 1)
                      for r in conds]) is None
    listed = []
    every = geometry.all_orbits
    monkeypatch.setattr(geometry, "all_orbits",
                        lambda *args: listed.append(args) or every(*args))
    pts = singular_point_search(surf, max_ext=7)
    assert (gf2, 7) in listed
    on_conic = [p for p in pts
                if not any(g.embed(gf2.embedding_to(p.spec)).evaluate(p.point)
                           for g in (a, b))]
    assert [p.point for p in pts if p not in on_conic] == [(0, 1, 0, 0)]
    # the conic has 2^m + 1 points over GF(2^m); each is listed at the
    # smallest level that holds it
    new = {1: 3, 2: 2, 3: 6, 4: 12, 5: 30, 6: 54, 7: 126}
    assert Counter(p.ext for p in on_conic) == new


def _fermat_like_surface(gf2):
    # d/dx1 vanishes and d/dx2, d/dx3, d/dx4 are free of x1
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    return QuarticSurface(x[0] ** 4 + x[1] * x[2] ** 3 + x[2] * x[3] ** 3
                          + x[3] * x[1] ** 3)


# the answer the P^3 evaluation scan gave at max_ext=6
_FERMAT_LIKE_POINTS = [
    ((1, 1, 1, 1), 1), ((1, 2, 4, 6), 3), ((1, 3, 5, 7), 3),
    ((1, 4, 6, 2), 3), ((1, 5, 7, 3), 3), ((1, 6, 2, 4), 3),
    ((1, 7, 3, 5), 3)]


def test_degenerate_elimination_retries_in_another_frame(gf2):
    # singular along the line {x2 = x3 = 0} through [1:0:0:0], the centre
    # of the identity frame, and through none of the other frame centres
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    surf = QuarticSurface(x[1] ** 2 * (x[0] ** 2 + x[2] * x[3])
                          + x[1] * x[2] * x[0] * x[3]
                          + x[2] ** 2 * (x[3] ** 2 + x[0] * x[2]))
    with pytest.raises(CapabilityError, match="whole line"):
        _points_in_frame(_forms(surf), _FRAMES[0], 1, True)
    pts = singular_point_search(surf, max_ext=6)
    assert len({(p.point, p.ext) for p in pts}) == len(pts)
    for m in range(1, 7):
        spec = FieldSpec.default(m)
        moved = surf.base_change(spec)
        direct = set(_singular_points_direct([moved.f] + moved.partials(),
                                             spec))
        assert direct == {tuple(p.spec.embedding_to(spec).apply_int(c)
                                for c in p.point)
                          for p in pts if m % p.ext == 0}
        assert len(direct) == 2 ** m + 2   # the line and one more point
    surf = _fermat_like_surface(gf2)
    for max_ext in (6, 7):
        assert [(p.point, p.ext) for p in
                singular_point_search(surf, max_ext=max_ext)] == \
            _FERMAT_LIKE_POINTS


def test_every_frame_is_tried_before_the_grid(gf2, monkeypatch):
    # the ninth surface of acceptance test 07b: at max_ext=4 the identity
    # frame's first two conditions share a line through its centre, which
    # the other conditions cut, so nothing is listed up to GF(4096)
    rng = random.Random(SEED)
    gf8 = FieldSpec.default(3)
    surfs = [_random_smooth_surface_with_line(rng, gf8) for _ in range(9)]
    monkeypatch.setattr(geometry, "all_orbits", _refuse_listing)
    assert singular_point_search(surfs[-1], max_ext=4) == []
    # x3 x1^3 + x4 x2^3 + x4^4: every condition of the identity frame
    # vanishes on a line through its centre, so the frame refuses before
    # the listing pass, and a later frame answers
    surf = surfaces.family_z_surface(gf2, (0, 0, 0), (0, 0, 0, 0, 1))
    with pytest.raises(CapabilityError, match="share a curve of zeros"):
        _points_in_frame(_forms(surf), _FRAMES[0], 6, False)
    assert [(p.point, p.ext) for p in singular_point_search(surf, 6)] == [
        ((0, 0, 1, 0), 1)]


def test_conditions_free_of_x1_need_no_grid(gf2, monkeypatch):
    # the identity frame keeps d/dx2 and d/dx3 as its conditions, whose
    # common zeros are finite: nothing is listed at any level
    monkeypatch.setattr(geometry, "all_orbits", _refuse_listing)
    pts = singular_point_search(_fermat_like_surface(gf2), max_ext=12)
    assert [(p.point, p.ext) for p in pts] == _FERMAT_LIKE_POINTS


def test_elimination_centred_off_the_surface(gf2):
    # four planes in general position: singular along their six lines, and
    # the projection centre of every fixed frame lies on one of them
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    planes = [x[2], x[1] + x[3], x[0] + x[1] + x[2], x[2] + x[3]]
    surf = QuarticSurface(planes[0] * planes[1] * planes[2] * planes[3])
    for frame in _FRAMES:
        with pytest.raises(CapabilityError, match="whole line"):
            _points_in_frame(_forms(surf), frame, 1, True)
    # the answer the P^3 evaluation scan gave at max_ext=6: the points of
    # the six lines, 6 * 2^m - 2 over GF(2^m)
    pts = singular_point_search(surf, max_ext=6)
    assert sorted(Counter(p.ext for p in pts).items()) == [
        (1, 10), (2, 12), (3, 36), (4, 72), (5, 180), (6, 324)]
    assert [p.point for p in pts if p.ext == 1] == [
        (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0),
        (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 1)]
    for p in pts:
        emb = gf2.embedding_to(p.spec)
        assert sum(h.embed(emb).evaluate(list(p.point)) == 0
                   for h in planes) >= 2


def test_elimination_over_gf4_when_every_gf2_point_is_on_the_surface(gf2):
    # three planes of a pencil and a fourth plane: every point of
    # P^3(GF(2)) lies on the surface, which is singular along four lines
    # through [0:0:0:1], 4q + 1 points over GF(q)
    x = [SparsePoly.variable(i, 4, gf2) for i in range(4)]
    surf = QuarticSurface(x[1] * x[2] * (x[1] + x[2]) * (x[0] + x[1] + x[2]))
    assert all(surf.f.evaluate(list(c)) == 0
               for c in itertools.product((0, 1), repeat=4))
    for frame in _FRAMES:
        with pytest.raises(CapabilityError):
            _points_in_frame(_forms(surf), frame, 1, True)
    # the answer the P^3 evaluation scan gave at max_ext=6
    pts = singular_point_search(surf, max_ext=6)
    assert sorted(Counter(p.ext for p in pts).items()) == [
        (1, 9), (2, 8), (3, 24), (4, 48), (5, 120), (6, 216)]
    assert [p.point for p in pts if p.ext <= 2] == [
        (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1),
        (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1),
        (0, 1, 1, 2), (0, 1, 1, 3), (1, 0, 0, 2), (1, 0, 0, 3), (1, 0, 1, 2),
        (1, 0, 1, 3), (1, 1, 0, 2), (1, 1, 0, 3)]


def test_centred_frames(gf2):
    # the first frames are the ones the searches always began with
    assert next(centred_frames((1, 0, 0, 0))) == _FRAMES[0]
    assert next(centred_frames((1, 1, 1))) == ((1, 1, 1), (0, 1, 0),
                                                (0, 0, 1))
    for first in ((1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1), (0, 0, 1)):
        frames = list(centred_frames(first))
        assert frames[0][0] == first
        assert sorted(fr[0] for fr in frames) == [
            c for c in itertools.product((0, 1), repeat=len(first))
            if any(c)]
        assert all(mat_rank(fr, gf2) == len(first) for fr in frames)


def test_no_quartic_is_singular_at_every_gf2_point(gf2):
    # f and its partials at the fifteen GF(2)-points are GF(2)-linear in
    # the 35 coefficients, of full rank over every GF(2^k): the search,
    # which skips singular centres, always keeps a frame
    monos = [SparsePoly(4, gf2, {e: 1}) for e in QUARTIC_MONOMIALS]
    rows = [[(m if i < 0 else m.derivative(i)).evaluate(c) for m in monos]
            for c in itertools.product((0, 1), repeat=4) if any(c)
            for i in range(-1, 4)]
    assert mat_rank(rows, gf2) == len(QUARTIC_MONOMIALS)


def _random_form(spec, rng, degree):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=4)
                 if sum(e) == degree]
    while True:
        f = SparsePoly(4, spec, {e: rng.randrange(spec.size)
                                 for e in monomials})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("k,max_ext", [(1, 3), (2, 2)])
def test_reducible_quartics_match_direct_scan(k, max_ext, monkeypatch):
    # products of planes and quadrics, singular where their components
    # meet: every level against the P^3 scan, some through a frame past
    # the identity
    spec = FieldSpec.default(k)
    rng = random.Random(f"reducible:{k}")
    used = []
    in_frame = geometry._points_in_frame

    def spy(forms, frame, cap, list_all):
        found = in_frame(forms, frame, cap, list_all)
        used.append(frame)
        return found

    monkeypatch.setattr(geometry, "_points_in_frame", spy)
    past_first = 0
    for shape in [(1, 1, 1, 1), (1, 1, 2), (2, 2)] * 4:
        f = _random_form(spec, rng, shape[0])
        for d in shape[1:]:
            f = f * _random_form(spec, rng, d)
        try:
            surf = QuarticSurface(f)
        except UsageError:  # a repeated factor
            continue
        used.clear()
        pts = singular_point_search(surf, max_ext=max_ext)
        past_first += used[-1] != _FRAMES[0]
        for m in range(1, max_ext + 1):
            big = FieldSpec.default(k * m)
            moved = surf.base_change(big)
            direct = set(_singular_points_direct(
                [moved.f] + moved.partials(), big))
            assert direct == {tuple(p.spec.embedding_to(big).apply_int(c)
                                    for c in p.point)
                              for p in pts if m % p.ext == 0}
    assert past_first >= 2


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


def _gf2_quartic():
    # x1*x2^3 + x2*x1^3 + x3*x4^3 + x4*x3^3 over GF(2)
    x = [SparsePoly.variable(i, 4, FieldSpec.default(1)) for i in range(4)]
    return QuarticSurface(x[0] * x[1] ** 3 + x[1] * x[0] ** 3
                          + x[2] * x[3] ** 3 + x[3] * x[2] ** 3)


def _gf4_axis_quartic(seed):
    """A seeded squarefree GF(4) quartic through the axis line."""
    gf4 = FieldSpec.default(2)
    rng = random.Random(f"axis:{seed}")
    while True:
        terms = {e: c for e in AXIS_MONOMIALS if (c := rng.randrange(4))}
        try:
            return QuarticSurface(SparsePoly(4, gf4, terms))
        except UsageError:
            continue


def _cell_23_decoy():
    """A GF(4) quartic with (0:0:1:0) and (0:0:0:1) on it that fails the
    tangent condition at that pair, though f(P + Q) = f(P + wQ) = 0: on
    x0 = x1 = 0 it is st(s^2 + wst + w^2 t^2), not zero."""
    return QuarticSurface(SparsePoly(4, FieldSpec.default(2), {
        (4, 0, 0, 0): 1, (0, 4, 0, 0): 1,
        (0, 0, 3, 1): 1, (0, 0, 2, 2): 2, (0, 0, 1, 3): 3}))


def _all_lines(spec):
    """Every line of P^3(GF(q)), one RREF matrix per Schubert cell slot."""
    for p1, p2 in SCHUBERT_CELLS:
        slots = _cell_free_positions(p1, p2)
        for digits in itertools.product(range(spec.size), repeat=len(slots)):
            rows = [[0] * 4, [0] * 4]
            rows[0][p1] = rows[1][p2] = 1
            for (r, c), d in zip(slots, digits):
                rows[r][c] = d
            yield Line(spec, rows, (p1, p2))


@pytest.mark.parametrize("make,ext", [
    (_gf2_quartic, 1), (z0_surface, 1),
    (lambda: _gf4_axis_quartic(0), 1), (lambda: _gf4_axis_quartic(1), 1),
    # grad f = 0 along the conic: no pair is cut by the tangent condition
    (lambda: _conic_surface()[0], 1), (lambda: _conic_surface()[0], 2),
    # cell (2, 3) has one pair and no free coordinate: it is cut by the
    # tangent condition alone
    (_cell_23_decoy, 1),
], ids=["gf2-quartic", "z0-gf4", "axis-gf4-0", "axis-gf4-1", "conic-gf2",
        "conic-gf4", "cell-23-decoy"])
def test_enumerate_lines_matches_brute_force(make, ext):
    surf = make()
    big = surf.base_change(FieldSpec.default(surf.spec.degree * ext))
    brute = sorted((ln for ln in _all_lines(big.spec)
                    if big.contains_line(ln)), key=Line.key)
    assert enumerate_lines(surf, ext=ext) == brute


def test_record_census_over_gf256(s5_surface):
    lines = enumerate_lines(s5_surface, ext=4)
    assert lines[0].spec.size == 256
    assert len(lines) == 60
    assert set(IntersectionGraph(lines).valencies()) == {17}


def _flat_chart(lead, free, q):
    """The chart's q^len(free) points as flat coordinate arrays, free
    coordinate j the j-th base-q digit of the point's index."""
    n = q ** len(free)
    idx = np.arange(n, dtype=np.int64)
    coords = [np.zeros(n, dtype=np.uint32) for _ in range(4)]
    coords[lead] = np.ones(n, dtype=np.uint32)
    for j, c in enumerate(free):
        coords[c] = ((idx // q ** j) % q).astype(np.uint32)
    return coords


def _eval_flat(p, coords, spec):
    """p on flat coordinate arrays, term by term."""
    val = np.zeros(coords[0].shape, dtype=np.uint32)
    for e, c in p.terms.items():
        term = np.full(coords[0].shape, c, dtype=np.uint32)
        for g, k in zip(coords, e):
            if k:
                term = spec.mul_arr(term, spec.pow_arr(g, k))
        val ^= term
    return val


def _census_by_pair_loop(surf):
    """The census oracle: in each cell, the points of both flat row charts
    on the surface, the tangent condition grad f(P).Q = 0 tested point Q
    by point Q, and every survivor confirmed by contains_line."""
    spec, partials, lines = surf.spec, surf.partials(), []
    for p1, p2 in SCHUBERT_CELLS:
        slots = _cell_free_positions(p1, p2)
        rows = []
        for row, lead in enumerate((p1, p2)):
            coords = _flat_chart(lead, [c for r, c in slots if r == row],
                                 spec.size)
            on = _eval_flat(surf.f, coords, spec) == 0
            rows.append(np.stack([c[on] for c in coords]))
        ps, qs = rows
        grad = [_eval_flat(g, list(ps), spec) for g in partials]
        for qpt in qs.T.tolist():
            dot = grad[p2].copy()
            for c in range(p2 + 1, 4):
                dot ^= spec.mul_arr(grad[c], qpt[c])
            for i in np.nonzero(dot == 0)[0].tolist():
                ln = Line(spec, [ps[:, i].tolist(), qpt])
                if surf.contains_line(ln):
                    lines.append(ln)
    return sorted(lines, key=Line.key)


def _permuted_family_x(perm):
    return surfaces.family_x_surface().transform(
        [[int(perm[c] == r) for c in range(4)] for r in range(4)])


def _scaled_record():
    """The record surface over GF(16) under a seeded monomial change with
    scalings from GF(4)*."""
    gf16 = FieldSpec.default(4)
    gf4_in_gf16 = FieldSpec.default(2).embedding_to(gf16)
    rng = random.Random(f"census-oracle:{SEED}")
    perm = rng.sample(range(4), 4)
    m = [[0] * 4 for _ in range(4)]
    for c in range(4):
        m[perm[c]][c] = gf4_in_gf16.apply_int(rng.randrange(1, 4))
    return get_surface("s5_mu0").base_change(gf16).transform(m)


@pytest.mark.parametrize("make,ext,count", [
    pytest.param(lambda p=p: _permuted_family_x(p), 6, 68,
                 id=f"family-x-{''.join(map(str, p))}")
    for p in itertools.permutations(range(4))] + [
    pytest.param(_scaled_record, 2, 60, id="record-gf256"),
    pytest.param(z0_surface, 2, None, id="z0-gf16")])
def test_census_matches_the_pair_loop_oracle(make, ext, count):
    surf = make()
    lines = enumerate_lines(surf, ext=ext)
    assert lines == _census_by_pair_loop(surf.base_change(
        surf.spec.level(ext)))
    assert count is None or len(lines) == count


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


def test_default_family_x_lambda_is_searched_once_per_field(gf2,
                                                            monkeypatch):
    spec, lam = surfaces.default_family_x_lambda(gf2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return singular_point_search(*args, **kwargs)

    monkeypatch.setattr(surfaces, "singular_point_search", counting)
    assert surfaces.default_family_x_lambda(gf2) == (spec, lam)
    assert surfaces.family_x_surface(spec=gf2).label == \
        f"family_x:{hex(lam)}@1"
    assert calls == []
