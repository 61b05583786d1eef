"""Guided dynamical systems, Cauchy-type functional equations, and the
second partly characteristic boundary value problem.

Module map:

- ``exprlang``: parse / evaluate / differentiate scalar expressions.
- ``gds``: guided systems, orbit closures, minimality and weak-attractor
  probes, guided cycles, orbit graphs with terminal components,
  conjugacy verification.
- ``funceq``: the operator A f = sum a_i (f o delta_i), contraction
  certificates, Neumann solving.
- ``pconf``: generalized P-configurations and the initial value problem
  f - sum f o delta_i = h, f'(c) = mu.
- ``cauchy``: overdetermined-equation propagation from boundary data and
  the affine Cauchy analysis in R^n.
- ``bvp``: the third-order boundary value problem end to end.
- ``cli``: the ``gds`` command line front end.

Each ``gds`` run is a fresh process, so SciPy is imported inside each
function that calls it, never at module level: a run loads only the SciPy
subpackages its subcommand uses.
"""

from . import bvp, cauchy, cli, errors, exprlang, funceq, gds, pconf
from .exprlang import differentiate, parse, to_source
from .funceq import FunceqSystem, GridFunction
from .gds import (CircleSpace, FiniteGraphSpace, GeneratorMap, GuidedSystem,
                  GuidingSet, Interval)

__version__ = "0.1.0"

__all__ = [
    "bvp", "cauchy", "cli", "errors", "exprlang", "funceq", "gds", "pconf",
    "parse", "differentiate", "to_source", "GridFunction", "FunceqSystem",
    "Interval", "CircleSpace", "FiniteGraphSpace", "GeneratorMap",
    "GuidingSet", "GuidedSystem",
]
