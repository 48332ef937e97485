from fractions import Fraction

import pytest

from quartic_lines.errors import CapabilityError, UsageError
from quartic_lines.field import FieldSpec, _gf2_poly_irreducible
from quartic_lines.poly import Poly
from quartic_lines.tate import (WeierstrassModel, build_integral_model,
                                classify_all,
                                enumerate_fiber_configs, example_6_4_instance,
                                finite_places, max_line_bearing_fibers,
                                ord_delta_total, qe_height_obstruction,
                                ss_place_test, tate_classify)


def gf2_polys():
    spec = FieldSpec.default(1)
    return (spec, Poly(spec, [0, 1]), Poly.one(spec), Poly.zero(spec))


def test_b_invariants_and_discriminant():
    spec, t, one, zero = gf2_polys()
    m = WeierstrassModel(spec, (one, zero, zero, zero, t))
    b2, b4, b6, b8 = m.b_invariants()
    assert b2 == one and b4.is_zero() and b6.is_zero() and b8 == t
    assert m.discriminant() == t
    num, den = m.j_invariant()
    assert num == one and den == t


def test_quasi_elliptic_rejected():
    spec, t, one, zero = gf2_polys()
    # a1 = a3 = 0 makes the discriminant vanish identically in char 2
    with pytest.raises(UsageError):
        WeierstrassModel(spec, (zero, one, zero, t, one))


def test_multiplicative_series():
    spec, t, one, zero = gf2_polys()
    for n in range(1, 11):
        m = WeierstrassModel(spec, (one, zero, zero, zero, t ** n))
        rep = tate_classify(m, 0)
        assert (rep.kodaira, rep.ord_delta_min, rep.scalings) == \
            (f"I{n}", n, 0)


def test_good_reduction_elsewhere():
    spec, t, one, zero = gf2_polys()
    m = WeierstrassModel(spec, (one, zero, zero, zero, t))
    assert tate_classify(m, 1).kodaira == "I0"


def test_integral_model_discriminant_identity():
    spec, t, one, zero = gf2_polys()
    m = build_integral_model(t, zero, one + t)
    assert m.discriminant() == t ** 12 * (one + t)


def test_unit_discriminant_model_is_minimal_i3_star():
    # y^2 + t^2 x y = x^3 + 1: discriminant t^12, j = t^12, and the model
    # is already minimal -- no translation makes a u = t rescaling
    # integral (the a2 and a4 valuation conditions conflict), so the walk
    # ends at I3* with zero scalings rather than unwinding to I0
    spec, t, one, zero = gf2_polys()
    m = build_integral_model(t, zero, one)
    rep = tate_classify(m, 0)
    assert (rep.kodaira, rep.ord_delta_min, rep.scalings) == ("I3*", 12, 0)
    # exhaustive check: no (r, s, w) with coefficients up to degree 3
    # reaches the non-minimal valuation profile (1, 2, 3, 4, 6)
    import itertools
    from quartic_lines.tate import _translate, _val
    a = [t * t, zero, zero, zero, one]
    for rb in itertools.product((0, 1), repeat=4):
        for sb in itertools.product((0, 1), repeat=4):
            for wb in itertools.product((0, 1), repeat=4):
                aa = _translate(a, Poly(spec, rb), Poly(spec, sb),
                                Poly(spec, wb))
                assert not all(_val(p) >= i
                               for p, i in zip(aa, (1, 2, 3, 4, 6)))


def test_near_unit_discriminant_model_is_additive():
    spec, t, one, zero = gf2_polys()
    m = build_integral_model(t, zero, one + t)
    rep = tate_classify(m, 0)
    assert (rep.kodaira, rep.ord_delta_min, rep.scalings) == ("II", 12, 0)


def test_scaling_up_is_detected_and_stripped():
    spec, t, one, zero = gf2_polys()
    base = WeierstrassModel(spec, (one, zero, zero, zero, t ** 2))
    ref = tate_classify(base, 0)
    scaled = WeierstrassModel(
        spec, tuple(p * t ** i for p, i in zip(base.a, (1, 2, 3, 4, 6))))
    rep = tate_classify(scaled, 0)
    assert rep.kodaira == ref.kodaira
    assert rep.scalings == ref.scalings + 1
    assert rep.ord_delta_min == ref.ord_delta_min


def test_i0_star():
    spec, t, one, zero = gf2_polys()
    # P(T) = T^3 + T + 1 is squarefree over GF(2)
    m = WeierstrassModel(spec, (t, zero, zero, t ** 2, t ** 3))
    rep = tate_classify(m, 0)
    assert rep.kodaira == "I0*"


def test_finite_places_groups_conjugates():
    spec, t, one, zero = gf2_polys()
    a6 = (t * t + t + one) * t ** 3
    m = WeierstrassModel(spec, (one, zero, zero, zero, a6))
    places = finite_places(m)
    assert places == [0, (2, 2)] or places == [0, (3, 2)]
    assert ord_delta_total(m) % 12 == 0


def test_orbit_past_the_cap_is_not_dropped():
    # Delta = a6 = (t^17 + t^3 + 1) t^3: an orbit of degree 17 besides
    # t = 0, past GF(2^16), is refused by name
    spec, t, one, zero = gf2_polys()
    assert _gf2_poly_irreducible((1 << 17) | 0b1001, 17)
    a6 = (t ** 17 + t ** 3 + one) * t ** 3
    m = WeierstrassModel(spec, (one, zero, zero, zero, a6))
    with pytest.raises(CapabilityError, match="degree 17"):
        finite_places(m)
    with pytest.raises(CapabilityError, match="degree 17"):
        ord_delta_total(m)
    # Delta = (t^7 + t + 1) t^3: the orbit of degree 7 is split
    m = WeierstrassModel(spec, (one, zero, zero, zero,
                                (t ** 7 + t + one) * t ** 3))
    assert finite_places(m) == [0, (2, 7)]
    assert ord_delta_total(m) == 24


def test_catalog_discriminant_sums():
    spec, t, one, zero = gf2_polys()
    catalog = [WeierstrassModel(spec, (one, zero, zero, zero, t ** n))
               for n in range(1, 11)]
    catalog.append(build_integral_model(t, zero, one))
    catalog.append(build_integral_model(t, zero, one + t))
    for m in catalog:
        assert ord_delta_total(m) % 12 == 0


def test_infinite_place():
    spec, t, one, zero = gf2_polys()
    m = WeierstrassModel(spec, (one, zero, zero, zero, t ** 3))
    rep = tate_classify(m, "inf")
    assert rep.kodaira != "I0"
    reps = classify_all(m)
    assert reps[-1].place == "inf"


def test_ss_place_test():
    spec, t, one, zero = gf2_polys()
    assert ss_place_test(t, one) == "consistent"
    assert ss_place_test(t, one + t) == "contradiction"
    with pytest.raises(UsageError):
        ss_place_test(one, one)      # a1 does not vanish at the place
    with pytest.raises(UsageError):
        ss_place_test(t, t)          # singular place


def test_semistable_shape_contradiction():
    a1, delta, verdict = example_6_4_instance()
    assert verdict == "contradiction"
    assert delta[1] != 0


def test_config_table():
    cands = enumerate_fiber_configs("psi-square-case", 21)
    assert len(cands) == 7
    assert sorted((c.lines for c in cands), reverse=True) == \
        [24, 22, 22, 22, 21, 21, 21]
    assert enumerate_fiber_configs("psi-square-case", 25) == []
    labels = {c.label() for c in cands}
    assert "6I4" in labels


def test_config_budget_exactness():
    for cand in enumerate_fiber_configs("psi-square-case", 0):
        fixed = 0
        wild = 0
        caps = {"I1": 1, "I2": 2, "I3": 3, "I4": 4, "IV": 4}
        for typ, n in cand.fibers:
            if typ in ("II", "III"):
                wild += n
            else:
                fixed += caps[typ] * n
        assert fixed + 4 * wild <= 24
        assert wild > 0 or fixed == 24


def test_restricted_type_maximum():
    assert max_line_bearing_fibers("pi-cubic-case",
                                   ["I1", "I2", "II", "III"]) == 12


def test_unknown_preset():
    with pytest.raises(UsageError):
        enumerate_fiber_configs("nope", 0)


def test_qe_height_obstruction():
    val, verdict = qe_height_obstruction(0, 6)
    assert val == Fraction(1) and verdict == "nonzero"
    # never an integer solution of 10 + 6s = (3/2) r with r in range
    for s in range(3):
        for r in range(21):
            val, verdict = qe_height_obstruction(s, r)
            assert verdict == "nonzero"
    with pytest.raises(UsageError):
        qe_height_obstruction(-1, 0)
    with pytest.raises(UsageError):
        qe_height_obstruction(0, 21)


def test_model_json_roundtrip(tmp_path):
    spec, t, one, zero = gf2_polys()
    m = build_integral_model(t, zero, one + t)
    path = tmp_path / "model.json"
    import json
    path.write_text(json.dumps(m.to_json()))
    back = WeierstrassModel.load(str(path))
    assert back.a == m.a and back.spec == m.spec
