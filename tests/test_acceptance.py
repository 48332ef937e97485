"""End-to-end acceptance gate: frozen example data, property sweeps, and
regression catalogs for the whole toolkit."""

import random
import time

import pytest

from quartic_lines.errors import UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import (QuarticSurface, axis_line,
                                    count_candidate_lines,
                                    detect_configurations, enumerate_lines,
                                    singular_point_search)
from quartic_lines.lattice import gram_from_graph
from quartic_lines.pencil import POS_ZERO, euler_budget_audit
from quartic_lines.poly import Poly, SparsePoly
from quartic_lines.segre import (build_dossier, char2_hessian,
                                 coplanar_line_multiplicity,
                                 family_z_531_instance, family_z_fiber_lines,
                                 family_z_valency_criterion,
                                 hessian_vanishes_at,
                                 hessian_vanishes_on_line, universal_hessian)
from quartic_lines.surfaces import (family_x_surface, family_z_surface,
                                    get_surface, schur_char2_surface)
from quartic_lines.tate import (WeierstrassModel, build_integral_model,
                                enumerate_fiber_configs, example_6_4_instance,
                                ord_delta_total, tate_classify)

SEED = 20260823


# 1 -- record census: exactly 60 lines over GF(16), within 2 minutes

def test_criterion_01_record_census_count_and_runtime(s5_surface):
    t0 = time.monotonic()
    lines = enumerate_lines(s5_surface, ext=2)
    elapsed = time.monotonic() - t0
    assert len(lines) == 60
    assert elapsed < 120.0


# 2 -- all 60 lines have valency 17

def test_criterion_02_valencies_all_17(s5_graph):
    assert s5_graph.valencies() == [17] * 60


# 3 -- Gram lattice: rank 20, span discriminant -55, exact

def test_criterion_03_lattice_rank_and_discriminant(s5_graph):
    lat = gram_from_graph(s5_graph)
    assert lat.rank() == 20
    assert lat.span_discriminant() == -55


# 4 -- the singular 68-line family at the default parameter

def test_criterion_04_family_x_singularity_and_68_lines():
    surface = family_x_surface()
    pts = singular_point_search(surface, max_ext=4)
    assert [(p.point, p.ext) for p in pts] == [((0, 0, 0, 1), 1)]
    counts = {}
    for ext in range(1, 7):
        counts[ext] = len(enumerate_lines(surface, ext=ext))
    # the minimal sufficient extension has degree 6 (GF(64)); smaller
    # fields fall well short (counts are not monotone across non-nested
    # fields)
    assert counts[6] == 68
    assert all(counts[e] < 68 for e in range(1, 6))


# 5 -- universal modified Hessian over the integers

def test_criterion_05_universal_hessian():
    universal_hessian.cache_clear()
    h = universal_hessian()   # divisibility by 8 is asserted coefficientwise
    assert len(h.terms) == 66
    spec = FieldSpec.default(1)
    x = [SparsePoly.variable(i, 3, spec) for i in range(3)]
    mono = x[0] * x[1] * x[2]
    assert char2_hessian(mono).is_zero()
    f = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 + mono
    assert char2_hessian(f) == f


# 6 -- Hessian vanishing on >= 500 seeded singular/reducible cubics

def _random_invertible3(rng, spec):
    from quartic_lines.geometry import mat_rank
    while True:
        m = [[rng.randrange(spec.size) for _ in range(3)] for _ in range(3)]
        if mat_rank(m, spec) == 3:
            return m


def _transform3(f, m, spec):
    images = {}
    for c in range(3):
        img = SparsePoly.zero(3, spec)
        for j in range(3):
            if m[j][c]:
                img = img + SparsePoly.variable(j, 3, spec).scale(m[j][c])
        images[c] = img
    return f.substitute(images)


def test_criterion_06_hessian_vanishing_sweep(gf16):
    rng = random.Random(SEED)
    spec = gf16
    q = spec.size
    x = [SparsePoly.variable(i, 3, spec) for i in range(3)]
    checked = 0
    failures = 0
    while checked < 250:      # reducible cubics: line times conic
        lf = tuple(rng.randrange(q) for _ in range(3))
        if not any(lf):
            continue
        lin = sum((xi.scale(c) for xi, c in zip(x, lf)),
                  SparsePoly.zero(3, spec))
        conic = SparsePoly(3, spec, {e: v for e, v in {
            (2, 0, 0): rng.randrange(q), (0, 2, 0): rng.randrange(q),
            (0, 0, 2): rng.randrange(q), (1, 1, 0): rng.randrange(q),
            (1, 0, 1): rng.randrange(q), (0, 1, 1): rng.randrange(q),
        }.items() if v})
        if conic.is_zero():
            continue
        if not hessian_vanishes_on_line(lin * conic, lf):
            failures += 1
        checked += 1
    while checked < 500:      # cubics singular at a random point
        base = SparsePoly(3, spec, {e: v for e, v in {
            (3, 0, 0): rng.randrange(q), (0, 3, 0): rng.randrange(q),
            (2, 1, 0): rng.randrange(q), (1, 2, 0): rng.randrange(q),
            (2, 0, 1): rng.randrange(q), (1, 1, 1): rng.randrange(q),
            (0, 2, 1): rng.randrange(q),
        }.items() if v})      # vanishes to order >= 2 at (0:0:1)
        if base.is_zero():
            continue
        m = _random_invertible3(rng, spec)
        moved = _transform3(base, m, spec)   # moved(y) = base(y M)
        from quartic_lines.geometry import mat_inverse
        pt = tuple(mat_inverse(m, spec)[2])  # y0 = e3 M^{-1}
        if not hessian_vanishes_at(moved, pt):
            failures += 1
        checked += 1
    assert checked >= 500
    assert failures == 0


# 7 -- divisibility audits: the record surface and 50 random smooth
#      quartics-with-lines over GF(8)

def test_criterion_07a_record_surface_divisibility(s5_dossiers):
    first = [d for d in s5_dossiers if d.kind == "first"]
    assert first, "expected first-kind lines in the census"
    for d in first:
        assert all(rec.ok for rec in d.audits), d.line.rows


_GF8_IDEAL = [(i, j, k, 4 - i - j - k)
              for i in range(5) for j in range(5 - i)
              for k in range(5 - i - j)
              if k + (4 - i - j - k) >= 1]


def _random_smooth_surface_with_line(rng, spec):
    while True:
        terms = {e: rng.randrange(spec.size) for e in _GF8_IDEAL}
        f = SparsePoly(4, spec, {e: c for e, c in terms.items() if c})
        if f.is_zero():
            continue
        try:
            surf = QuarticSurface(f, "random")
        except UsageError:
            continue
        if singular_point_search(surf, max_ext=2):
            continue
        return surf


def test_criterion_07b_random_gf8_divisibility(gf8, gf8_07b_dossiers):
    # the surfaces from _random_smooth_surface_with_line, drawn with SEED
    line = axis_line(gf8)
    audited = 0
    assert len(gf8_07b_dossiers) == 50
    for d in gf8_07b_dossiers:
        surf = d.pencil.surface
        assert surf.contains_line(line) and d.line == line
        if d.kind == "first":
            for rec in d.audits:
                assert rec.ok, (surf.f.terms, rec)
            audited += 1
    assert audited >= 25      # the sweep is overwhelmingly first kind


def _smooth_family_z_surfaces(spec, n):
    """The first n family-Z surfaces that random.Random(11) draws (q2,
    then q4) with no singular point up to GF(2^16): a cheap filter at
    max_ext=2 first, so that no curve of singular points is listed at a
    large level."""
    rng = random.Random(11)
    out = []
    while len(out) < n:
        q2 = tuple(rng.randrange(spec.size) for _ in range(3))
        q4 = tuple(rng.randrange(spec.size) for _ in range(5))
        try:
            surf = family_z_surface(spec, q2, q4)
        except UsageError:
            continue
        if not (singular_point_search(surf, max_ext=2)
                or singular_point_search(surf, 16 // spec.degree)):
            out.append(surf)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_family_z_second_kind_sweep(k):
    # the second-kind counterpart of 07b: the axis line of a smooth
    # family-Z surface, whose short Euler sums must carry a flag
    spec = FieldSpec.default(k)
    for surf in _smooth_family_z_surfaces(spec, 10):
        d = build_dossier(surf, axis_line(spec))
        assert d.kind == "second"
        assert euler_budget_audit(d.fibers)[0] >= 24 or d.flags, surf.label
        assert d.valency <= 20


# 8 -- valency bounds on censused smooth surfaces

def test_criterion_08_valency_bounds(s5_lines, s5_graph, s5_dossiers):
    assert len(s5_lines) <= 64
    for i, d in enumerate(s5_dossiers):
        assert d.valency == s5_graph.valency(i)
        assert d.valency <= d.valency_bound()
        if d.kind == "first":
            assert d.valency <= 18
        elif d.ram_label() == "(2,2)":
            assert d.valency <= 20
        else:
            assert d.valency <= 16
    case = detect_configurations(s5_graph).case
    if case == "squarefree-case":
        assert max(s5_graph.valencies()) <= 12
    # second smooth census: z0 over GF(4)
    z0 = get_surface("z0")
    lines = enumerate_lines(z0, ext=1)
    assert len(lines) <= 64


# 9 -- z0 regression

def test_criterion_09_z0_regression(gf4):
    surf = get_surface("z0")
    assert singular_point_search(surf, max_ext=6) == []
    d = build_dossier(surf, axis_line(gf4))
    assert d.kind == "second"
    assert d.ram_label() == "(2,2)"
    assert d.valency == 18
    assert family_z_valency_criterion((1, 1, 0, 0, 1)) == 18
    at_zero = [f.kodaira for f in d.fibers if f.position == POS_ZERO]
    assert at_zero == ["IV"]


# 10 -- family-Z divisibility: lambda^4 generally, lambda^6 under the
#       degeneracy condition; >= 10 instances each

def _family_z_samples(rng, spec, n, impose):
    out = []
    while len(out) < n:
        q2_tail = (rng.randrange(spec.size), rng.randrange(spec.size))
        q4_tail = tuple(rng.randrange(spec.size) for _ in range(4))
        try:
            surf = family_z_531_instance(spec, q2_tail, q4_tail,
                                         impose_533=impose)
        except UsageError:
            continue
        out.append(surf)
    return out


def test_criterion_10_family_z_divisibility(gf4):
    rng = random.Random(SEED)
    for surf in _family_z_samples(rng, gf4, 10, impose=False):
        for ln in family_z_fiber_lines(surf):
            kind, mult = coplanar_line_multiplicity(surf, ln)
            assert kind == "first"
            assert mult >= 4, (surf.label, mult)
    for surf in _family_z_samples(rng, gf4, 10, impose=True):
        for ln in family_z_fiber_lines(surf):
            kind, mult = coplanar_line_multiplicity(surf, ln)
            assert kind == "first"
            assert mult >= 6, (surf.label, mult)


# 11 -- the configuration table

def test_criterion_11_config_table():
    cands = enumerate_fiber_configs("psi-square-case", 21)
    assert len(cands) == 7
    assert sorted((c.lines for c in cands), reverse=True) == \
        [24, 22, 22, 22, 21, 21, 21]
    assert enumerate_fiber_configs("psi-square-case", 25) == []


# 12 -- Tate suite

def test_criterion_12_tate_suite():
    spec = FieldSpec.default(1)
    t = Poly(spec, [0, 1])
    one = Poly.one(spec)
    zero = Poly.zero(spec)
    for n in range(1, 11):
        m = WeierstrassModel(spec, (one, zero, zero, zero, t ** n))
        assert tate_classify(m, 0).kodaira == f"I{n}"
    # the unit-discriminant integral model is already minimal: the Tate
    # walk terminates at I3* with discriminant order 12 and no u-scaling
    # (an exhaustive translation search confirming minimality lives in the
    # tate module tests; see also the project decision ledger)
    m = build_integral_model(t, zero, one)
    rep = tate_classify(m, 0)
    assert (rep.kodaira, rep.ord_delta_min, rep.scalings) == ("I3*", 12, 0)
    # the semi-stable shape contradiction
    assert example_6_4_instance()[2] == "contradiction"
    # catalog: all discriminant-order totals are multiples of 12
    catalog = [WeierstrassModel(spec, (one, zero, zero, zero, t ** n))
               for n in range(1, 11)]
    catalog.append(build_integral_model(t, zero, one))
    catalog.append(build_integral_model(t, zero, one + t))
    catalog.append(WeierstrassModel(
        spec, (one, zero, zero, zero, (t * t + t + one) * t ** 3)))
    for m in catalog:
        assert ord_delta_total(m) % 12 == 0


# 13 -- degeneracy detection

def test_criterion_13_degenerate_quartics():
    with pytest.raises(UsageError, match="4th power"):
        get_surface("fermat_char2")
    pts = singular_point_search(schur_char2_surface(), max_ext=2)
    assert ((1, 0, 1, 0), 1) in [(p.point, p.ext) for p in pts]


# 14 -- sanity: candidate count over GF(2)

def test_criterion_14_candidate_lines_over_gf2():
    assert count_candidate_lines(2) == 35
    # the Schubert cell decomposition enumerates exactly that many
    from quartic_lines.geometry import SCHUBERT_CELLS, _cell_free_positions
    total = sum(2 ** len(_cell_free_positions(p1, p2))
                for p1, p2 in SCHUBERT_CELLS)
    assert total == 35
