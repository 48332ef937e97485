import pytest

from quartic_lines.errors import UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import axis_line
from quartic_lines.pencil import (POS_INF, POS_ZERO, ResidualPencil,
                                  classify_fiber, euler_budget_audit,
                                  fiber_line_count, geometric_valency,
                                  ramification_type, residual_cubic,
                                  second_kind_fiber_audit, singular_fibers)
from quartic_lines.poly import SparsePoly
from quartic_lines.surfaces import get_surface, s5_mu0_seed_line


GF256 = FieldSpec.default(8)


def xyz(spec):
    return [SparsePoly.variable(i, 3, spec) for i in range(3)]


def test_classify_triangle_is_i3(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x * y * z)
        assert rep.kodaira == "I3"
        assert rep.component_count() == 3
        assert len(rep.singular_points) == 3
        assert all(s.local_type == "node" for s in rep.singular_points)


def test_classify_nodal_irreducible_is_i1(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # node at (0:0:1) with split tangents x and y
        f = x * y * z + x ** 3 + y ** 3
        rep = classify_fiber(f)
        assert rep.kodaira == "I1"
        # irreducible: no line components
        assert rep.component_count() == 0
        assert rep.singular_points[0].local_type == "node"


def test_classify_cusp_is_ii(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(z * y * y + x ** 3)
        assert rep.kodaira == "II"
        assert rep.singular_points[0].local_type == "cusp"


def test_classify_conic_plus_secant_line(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # smooth conic xz + y^2 with the line y = 0 meeting it at (1:0:0) and
        # (0:0:1): two nodes
        rep = classify_fiber((x * z + y * y) * y)
        assert rep.kodaira == "I2"
        # only the line is counted; the conic is not a line component
        assert rep.component_count() == 1
        assert len(rep.singular_points) == 2


def test_classify_conic_plus_tangent_line(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # line x = 0 is tangent to xz + y^2 at (0:0:1)
        rep = classify_fiber((x * z + y * y) * x)
        assert rep.kodaira == "III"
        assert rep.component_count() == 1
        assert len(rep.singular_points) == 1


def test_classify_concurrent_lines_is_iv(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x ** 3 + y ** 3)  # three lines through (0:0:1)
        assert rep.kodaira == "IV"
        assert rep.component_count() == 3
        assert rep.singular_points[0].local_type == "triple"


def test_classify_iv_with_hidden_components(gf2):
    x, y, z = xyz(gf2)
    # over GF(2) only x + y is rational; the conjugate pair is hidden
    rep = classify_fiber(x ** 3 + y ** 3)
    assert rep.kodaira == "IV"
    assert len(rep.components) == 1
    assert rep.hidden_components == 2
    assert rep.component_count() == 3


def test_classify_smooth(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x ** 3 + y ** 3 + z ** 3)
        assert rep.kodaira == "smooth"


def test_truncation_flag_only_when_a_point_can_hide():
    # over GF(256) the search reaches degree 2 only: a singular point found
    # rules out a degree-3 orbit, an empty search does not
    x, y, z = xyz(GF256)
    assert classify_fiber(x * y * z).flags == []
    smooth = classify_fiber(x ** 3 + y ** 3 + z ** 3)
    assert smooth.flags == [
        "singular-point search capped at extension degree 2"]


def test_z0_axis_pencil_full_dossier(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    ram = ramification_type(pencil)
    assert ram.type == "(2,2)"
    fibers = singular_fibers(pencil)
    assert [f.kodaira for f in fibers] == ["IV"] * 6
    assert fiber_line_count(fibers) == 18
    euler, fits = euler_budget_audit(fibers)
    assert (euler, fits) == (24, True)
    assert any(f.position == POS_ZERO for f in fibers)
    audits = second_kind_fiber_audit(pencil, ram, fibers)
    assert all(entry.ok for entry in audits)


def test_s5_seed_line_pencil(s5_surface):
    line = s5_mu0_seed_line()
    pencil = ResidualPencil(s5_surface, line)
    ram = ramification_type(pencil)
    assert ram.type == "(1,1)"
    fibers = singular_fibers(pencil)
    kinds = sorted(f.kodaira for f in fibers)
    assert kinds == sorted(["I2"] * 5 + ["I3"] * 4 + ["I1"] * 2)
    assert fiber_line_count(fibers) == 17
    euler, fits = euler_budget_audit(fibers)
    assert fits


def test_geometric_valency_matches_graph(s5_surface, s5_lines, s5_graph):
    for idx in (0, 7, 31):
        v = geometric_valency(s5_surface, s5_lines[idx])
        assert v == s5_graph.valency(idx)


def test_degenerate_restriction_raises(gf4):
    # a surface containing the axis line where A and B share a root
    x = [SparsePoly.variable(i, 4, gf4) for i in range(4)]
    f = x[2] * x[0] ** 3 + x[3] * x[0] ** 3 + x[2] ** 4 + x[3] ** 4 \
        + x[0] * x[1] ** 2 * x[3] + x[1] * x[2] ** 3
    from quartic_lines.geometry import QuarticSurface
    surf = QuarticSurface(f, check=True)
    pencil = ResidualPencil(surf, axis_line(gf4))
    with pytest.raises(UsageError):
        ramification_type(pencil)


def test_residual_cubic_is_cubic(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    for pos in (POS_ZERO, POS_INF):
        cubic = residual_cubic(pencil, pos)
        assert cubic.is_homogeneous(3)
