import random

import pytest

from quartic_lines.field import FieldSpec
from quartic_lines.geometry import (IntersectionGraph, axis_line,
                                    enumerate_lines)
from quartic_lines.segre import build_dossier
from quartic_lines.surfaces import get_surface, s5_mu0_surface


@pytest.fixture(scope="session")
def s5_surface():
    return s5_mu0_surface()


@pytest.fixture(scope="session")
def s5_lines(s5_surface):
    return enumerate_lines(s5_surface, ext=2)


@pytest.fixture(scope="session")
def s5_graph(s5_lines):
    return IntersectionGraph(s5_lines)


@pytest.fixture(scope="session")
def s5_dossiers(s5_surface, s5_lines):
    return [build_dossier(s5_surface, ln) for ln in s5_lines]


@pytest.fixture(scope="session")
def z0_dossiers():
    z0 = get_surface("z0")
    return [build_dossier(z0, ln) for ln in enumerate_lines(z0, ext=1)]


@pytest.fixture(scope="session")
def gf8_07b_dossiers(gf8):
    """The axis-line dossiers of the 50 seeded random GF(8) surfaces of
    acceptance test 07b, in the order drawn."""
    from test_acceptance import SEED, _random_smooth_surface_with_line
    rng = random.Random(SEED)
    line = axis_line(gf8)
    return [build_dossier(_random_smooth_surface_with_line(rng, gf8), line)
            for _ in range(50)]


@pytest.fixture(scope="session")
def gf2():
    return FieldSpec.default(1)


@pytest.fixture(scope="session")
def gf4():
    return FieldSpec.default(2)


@pytest.fixture(scope="session")
def gf8():
    return FieldSpec.default(3)


@pytest.fixture(scope="session")
def gf16():
    return FieldSpec.default(4)
