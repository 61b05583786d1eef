import math

import numpy as np
import pytest

from guided_dynamics.bvp import BoundaryProblem, build_boundary_system
from guided_dynamics.exprlang import parse
from guided_dynamics.funceq import FunceqSystem, GridFunction
from guided_dynamics.gds import (CircleSpace, GeneratorMap, GuidedSystem,
                                 GuidingSet, Interval)
from guided_dynamics.pconf import validate_pconfiguration

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rotation_map(theta, label=0):
    shift = TWO_PI * theta
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    return GeneratorMap(lambda t: np.asarray(t, dtype=float) + shift,
                        ones, label=label)


def circle_guiding():
    return [GuidingSet.points([0.0, math.pi]),
            GuidingSet.points([math.pi / 2, 3 * math.pi / 2])]


def compute_g_n(system, n, M):
    """Oracle: g_n = A^n 1, the grid operator of a FunceqSystem applied n
    times to the ones."""
    g = np.ones(M + 1)
    for _ in range(n):
        g = system.grid_operator(system.space, M) @ g
    return GridFunction(system.space, g)


def validate_orbit(system, orbit, tol_step):
    """Oracle: every step of the orbit uses an allowed generator and
    reproduces the stored point within tol_step."""
    pts = np.asarray(orbit.points, dtype=float)
    for j, i in enumerate(orbit.gens):
        x_prev, x_next = pts[j], pts[j + 1]
        if not system.allowed_mask(i, x_prev)[0]:
            return False
        if system.space.metric(system.step(i, x_prev)[0], x_next) > tol_step:
            return False
    return True


def circle_system(theta1, theta2):
    """The thesis circle example: two rotations guided by the real and
    imaginary axis point pairs."""
    return GuidedSystem(CircleSpace(), [rotation_map(theta1, 0),
                                        rotation_map(theta2, 1)],
                        circle_guiding())


@pytest.fixture(scope="session")
def standard_pconf():
    return validate_pconfiguration([parse("(t-1)/2"), parse("(t+1)/2")],
                                   Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def quadratic_pconf():
    return validate_pconfiguration(
        [parse("t-((t+1)/2)^2"), parse("((t+1)/2)^2")],
        Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def three_map_pconf():
    maps = [parse("t/3"), parse("t/3+1"), parse("t/3+2")]
    return validate_pconfiguration(maps, Interval(0.0, 3.0),
                                   (0.0, 1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def quarter_coeff_system():
    return FunceqSystem(Interval(-1.0, 1.0),
                        [parse("(t+1)/2"), parse("(t-1)/2")],
                        [parse("0.25"), parse("0.25")])


@pytest.fixture(scope="session")
def half_coeff_system():
    return FunceqSystem(Interval(-1.0, 1.0),
                        [parse("(t+1)/2"), parse("(t-1)/2")],
                        [parse("0.5"), parse("0.5")])


@pytest.fixture(scope="session")
def quadratic_coeff_system():
    return FunceqSystem(Interval(-1.0, 1.0),
                        [parse("(t+1)/2"), parse("(t-1)/2")],
                        [parse("t*t/2"), parse("0.5")])


def straight_problem(g1="t^2", g2="t^2", g_gamma="z^2"):
    return BoundaryProblem(parse("(1+z)/2", var="z"),
                           parse("(1-z)/2", var="z"), 1.0, 1.0,
                           parse(g1), parse(g2), parse(g_gamma, var="z"))


def curved_problem():
    a1 = parse("(1+z)/2", var="z")
    a2 = parse("(1-z)/2 + 0.2*(1-z^2)", var="z")
    g_gamma = a1 * a1 + a2 * a2 + (a1 - a2) * (a1 - a2) * (a1 - a2)
    return BoundaryProblem(a1, a2, 1.0, 1.0, parse("t^2 + t^3"),
                           parse("t^2 - t^3"), g_gamma)


CYCLE_ALPHA1 = ("0.60546875 + z/2 - 1.16015625*z^2 + 2.00390625*z^4 "
                "- 0.94921875*z^6")
CYCLE_ALPHA2 = ("0.60546875 - z/2 - 1.16015625*z^2 + 2.00390625*z^4 "
                "- 0.94921875*z^6")


def cycle_problem():
    """Curve planted so that the induced interval maps carry a guided
    2-cycle through t = 1/3 and t = -1/3 (derivative tangencies exactly at
    the cycle points; all coefficients are exact dyadics)."""
    return BoundaryProblem(parse(CYCLE_ALPHA1, var="z"),
                           parse(CYCLE_ALPHA2, var="z"), 1.0, 1.0,
                           parse("0*t"), parse("0*t"), parse("0*z", var="z"))


@pytest.fixture(scope="session")
def straight_system():
    return build_boundary_system(straight_problem())


@pytest.fixture(scope="session")
def curved_system():
    return build_boundary_system(curved_problem())


@pytest.fixture(scope="session")
def cycle_system():
    return build_boundary_system(cycle_problem())
