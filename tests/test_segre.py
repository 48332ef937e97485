import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from test_acceptance import _smooth_family_z_surfaces
from test_pencil import (_oracle_pencils, _residual_cubic_by_substitution,
                         _two_chart_forms)

from quartic_lines.errors import UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import QuarticSurface, axis_line, enumerate_lines
from quartic_lines.pencil import POS_INF, ResidualPencil, residual_cubic
from quartic_lines.poly import SparsePoly
from quartic_lines.segre import (_hessian_on_line, _odd_terms, _specialize,
                                 build_dossier,
                                 char2_hessian,
                                 coplanar_line_multiplicity,
                                 family_z_531_instance, family_z_fiber_lines,
                                 family_z_symbolic_resultant,
                                 family_z_valency_criterion,
                                 hessian_vanishes_at,
                                 hessian_vanishes_on_line, plane_position,
                                 resultant_multiplicity, segre_resultant,
                                 universal_hessian)
from quartic_lines.surfaces import get_surface, s5_mu0_seed_line


def xyz(spec):
    return [SparsePoly.variable(i, 3, spec) for i in range(3)]


def test_universal_hessian_table():
    h = universal_hessian()  # divisibility by 8 is asserted inside
    assert len(h.terms) == 66
    assert h.nvars == 13 and h.spec is None


def test_hessian_of_coordinate_triangle_vanishes(gf4):
    x, y, z = xyz(gf4)
    assert char2_hessian(x * y * z).is_zero()


def test_hessian_fixed_point(gf2):
    x, y, z = xyz(gf2)
    f = x ** 3 + y ** 3 + z ** 3 + x * y * z
    assert char2_hessian(f) == f


def test_hessian_vanishes_on_components_and_singular_points(gf16):
    rng = random.Random(20260823)
    q = gf16.size
    x, y, z = xyz(gf16)
    for _ in range(40):
        # reducible: random line times random conic
        lf = [rng.randrange(q) for _ in range(3)]
        while not any(lf):
            lf = [rng.randrange(q) for _ in range(3)]
        lin = sum((xi.scale(c) for xi, c in zip((x, y, z), lf)),
                  SparsePoly.zero(3, gf16))
        conic = SparsePoly(3, gf16, {
            e: rng.randrange(q)
            for e in [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                      (1, 1, 0), (1, 0, 1), (0, 1, 1)]})
        if conic.is_zero():
            continue
        cubic = lin * conic
        assert hessian_vanishes_on_line(cubic, tuple(lf))
    for _ in range(40):
        # cubic forced singular at a random point (moved from (0:0:1))
        terms = {}
        for e in [(3, 0, 0), (0, 3, 0), (2, 1, 0), (1, 2, 0),
                  (2, 0, 1), (1, 1, 1), (0, 2, 1)]:
            terms[e] = rng.randrange(q)
        cubic = SparsePoly(3, gf16, {e: c for e, c in terms.items() if c})
        if cubic.is_zero():
            continue
        assert hessian_vanishes_at(cubic, (0, 0, 1))


def test_hessian_rejects_bad_input(gf4):
    x, y, z = xyz(gf4)
    with pytest.raises(UsageError):
        char2_hessian(x * y)  # not a cubic
    with pytest.raises(UsageError):
        char2_hessian(SparsePoly.variable(0, 3, None) ** 3)  # no field
    for form in ((0, 0, 0), (1, 0)):     # no line of the plane
        with pytest.raises(UsageError):
            hessian_vanishes_on_line(x ** 3 + y ** 3 + z ** 3, form)


def _mu_chart_resultant(pencil):
    """R in the mu chart, from the former two-chart construction."""
    return segre_resultant(SimpleNamespace(g=_two_chart_forms(pencil)[1],
                                           spec=pencil.spec))


def test_z0_axis_is_second_kind(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    assert segre_resultant(pencil).is_zero()
    assert _mu_chart_resultant(pencil).is_zero()
    d = build_dossier(surf, axis_line(gf4))
    assert d.kind == "second"
    assert d.ram_label() == "(2,2)"
    assert d.valency == 18
    assert d.valency_bound() == 20
    assert d.audits == []


def test_s5_seed_line_is_first_kind(s5_surface):
    line = s5_mu0_seed_line()
    pencil = ResidualPencil(s5_surface, line)
    r = segre_resultant(pencil)
    assert not r.is_zero()
    assert r.degree() <= 18
    d = build_dossier(s5_surface, line)
    assert d.kind == "first"
    assert d.valency == 17 <= d.valency_bound() == 18
    assert d.audits and all(rec.ok for rec in d.audits)
    # I3 fibers demand cubed factors
    assert {rec.required for rec in d.audits} <= {2, 3}


def test_family_z_symbolic_resultant_vanishes():
    assert family_z_symbolic_resultant().is_zero()


def test_family_z_valency_criterion():
    assert family_z_valency_criterion((1, 0, 0, 0, 0)) == 18
    assert family_z_valency_criterion((0, 1, 1, 1, 0)) == 16
    assert family_z_valency_criterion((0, 0, 0, 0, 1)) == 18


def test_family_z_instances_and_coplanar_multiplicity(gf4):
    surf = family_z_531_instance(gf4, (1, 2), (3, 1, 2, 1))
    lines = family_z_fiber_lines(surf)
    assert len(lines) == 3
    for ln in lines:
        kind, mult = coplanar_line_multiplicity(surf, ln)
        assert kind == "first"
        assert mult >= 4


def test_family_z_533_condition_boosts_multiplicity(gf4):
    surf = family_z_531_instance(gf4, (1, 2), (3, 1, 2, 1), impose_533=True)
    for ln in family_z_fiber_lines(surf):
        kind, mult = coplanar_line_multiplicity(surf, ln)
        assert kind == "first"
        assert mult >= 6


def test_plane_position_roundtrip(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    # the plane x4 = 0 contains the axis line; position is lambda = 0 in
    # normalized coordinates up to the normalizing transform
    pos = plane_position(pencil, (0, 0, 0, 1))
    assert pos.chart in ("finite", "inf")
    with pytest.raises(UsageError):
        plane_position(pencil, (1, 0, 0, 0))  # does not contain the line


def _axis_pencils(spec, count, rng):
    """Residual pencils of the axis line on random quartics through it."""
    monos = [(i, j, k, 4 - i - j - k) for i in range(5) for j in range(5 - i)
             for k in range(5 - i - j) if i + j < 4]
    out = []
    while len(out) < count:
        f = SparsePoly(4, spec, {e: rng.randrange(spec.size) for e in monos})
        try:
            out.append(ResidualPencil(QuarticSurface(f, "random"),
                                      axis_line(spec)))
        except UsageError:
            continue
    return out


def test_on_line_hessian_is_the_hessian_at_z_zero(s5_surface, s5_lines, gf8):
    # segre_resultant specialises only the universal terms free of z: that
    # must be char2_hessian with z set to 0, in both charts
    pencils = [ResidualPencil(s5_surface, ln) for ln in s5_lines[::12]]
    pencils += _axis_pencils(gf8, 4, random.Random(11))
    assert len(_odd_terms(True)) == 22 and len(_odd_terms(False)) == 60
    for pencil in pencils:
        for g in (pencil.g, _two_chart_forms(pencil)[1]):
            full = char2_hessian(g, (0, 1, 2))
            want = SparsePoly(4, g.spec, {e: c for e, c in full.terms.items()
                                          if e[2] == 0})
            assert _specialize(g, (0, 1, 2), _odd_terms(True)) == want


def test_hessian_rows_on_the_line_match_the_term_dicts():
    # segre_resultant reads h on {z = 0} at x1 = 1 off the 22 on-line
    # terms with each a_m a polynomial in lambda: the rows of the former
    # specialisation in 4-variable term dicts, on every oracle pencil
    pencils = _oracle_pencils()
    assert len(pencils) == 107
    for pencil in pencils:
        want = _specialize(pencil.g, (0, 1, 2), _odd_terms(True)).restrict(
            {0: 1, 2: 0}).rows(4)
        assert _hessian_on_line(pencil.g) == want


def _digest(dossiers, drop=(), fiber_flags=True):
    """SHA-256 of the dossiers' sorted-key JSON, the keys `drop` left out,
    and each fiber's flags too unless `fiber_flags`."""
    docs = [{k: v for k, v in d.to_json().items() if k not in drop}
            for d in dossiers]
    for doc in docs if not fiber_flags else ():
        for fib in doc["fibers"]:
            del fib["flags"]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()
                          ).hexdigest()


def _restriction_by_hand(g):
    """The former collection of A and B from g|_{z=0} = A + param*B."""
    a, b = [0] * 4, [0] * 4
    for e, c in g.terms.items():
        if e[2] == 0:
            assert e[3] <= 1
            (b if e[3] else a)[3 - e[0]] ^= c
    return a, b


def test_one_chart_matches_the_two_chart_construction(s5_surface, s5_lines,
                                                      gf8):
    # the lambda chart alone against the former substitution in both
    # charts: g, A and B, the cubic at infinity, and R in the mu chart
    # against mu^18 R(1/mu)
    z0 = get_surface("z0")
    pencils = [ResidualPencil(s5_surface, ln) for ln in s5_lines]
    pencils += [ResidualPencil(z0, ln) for ln in enumerate_lines(z0, ext=1)]
    pencils += _axis_pencils(gf8, 40, random.Random(12))
    second = 0
    for pencil in pencils:
        g, g_inf = _two_chart_forms(pencil)
        assert pencil.g == g
        assert (pencil.A, pencil.B) == _restriction_by_hand(g)
        assert (pencil.B, pencil.A) == _restriction_by_hand(g_inf)
        assert residual_cubic(pencil, POS_INF) == \
            _residual_cubic_by_substitution(pencil, POS_INF)
        r = segre_resultant(pencil)
        assert _mu_chart_resultant(pencil) == r.reverse(18)
        second += r.is_zero()
    assert second >= 1


def test_line_carrying_fibers_of_first_kind_lines_are_roots_of_r(
        s5_dossiers, z0_dossiers):
    # the fibers the valency bound of 18 counts are roots of R, at
    # infinity too, where the multiplicity is 18 - deg R
    first = [d for d in s5_dossiers + z0_dossiers if d.kind == "first"]
    assert len(first) == 66
    carrying = [(d, fib) for d in first for fib in d.fibers
                if fib.component_count()]
    assert len(carrying) == 546
    assert sum(fib.position.is_infinite() for _, fib in carrying) == 63
    for d, fib in carrying:
        assert resultant_multiplicity(d.pencil, d.R, fib.position) >= 1


def test_dossiers_are_byte_identical_to_the_pinned_digests(s5_dossiers,
                                                           z0_dossiers):
    # the sorted-key JSON of the 7 z0 dossiers and of the 60 record
    # dossiers, pinned so that a rewrite of a kernel under the dossiers
    # shows any change in them
    assert _digest(z0_dossiers) == \
        "f8af91897390b848ac274594384371bf071109a50dfa6ce366273ec121fdd487"
    assert _digest(s5_dossiers) == \
        "1a3e619ef3b16ec98cce5defc2285d609b54e4aa19f1e0502b71d17ee0820cb4"


def test_07b_dossiers_are_byte_identical_to_the_pinned_digest(
        gf8_07b_dossiers):
    # the same for the 50 dossiers of acceptance test 07b, for them with
    # the dossier flags left out, and with each fiber's flags left out:
    # that digest was taken before an I1 found past the search's cap lost
    # its capped flag, which changed nothing else
    assert _digest(gf8_07b_dossiers) == \
        "1038826e493965239d309e19cdd22e8fb7fd4e4dc1e10dcdaa55f624b82374b6"
    assert _digest(gf8_07b_dossiers, drop={"flags"}) == \
        "722a9ea30090a83430fccba84c524d9ff78293d839e1f312a0214afb8199aff7"
    assert _digest(gf8_07b_dossiers, fiber_flags=False) == \
        "d6755f425b529c8b4d19dbbd04e9b93e167ad553ab47d8d93f24be493a13e976"


def test_family_z_dossiers_are_byte_identical_to_the_pinned_digest():
    # the 30 second-kind axis dossiers of the acceptance sample, 10 per
    # field GF(2), GF(4), GF(8), in full and with each fiber's flags left
    # out: that digest was taken before a fiber whose singular points were
    # all found lost its capped flag
    dossiers = [build_dossier(surf, axis_line(spec))
                for spec in map(FieldSpec.default, (1, 2, 3))
                for surf in _smooth_family_z_surfaces(spec, 10)]
    assert _digest(dossiers) == \
        "f39932f88275bd0d324db70e7061418fd69a9e5f91006ce856737f24b1192688"
    assert _digest(dossiers, fiber_flags=False) == \
        "73cca522c8aeb7ecf4f57f66c710cc2fd877da00364c1b7b4ac8925785ab8a4b"
