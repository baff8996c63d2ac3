"""Tools for deciding whether a rational matrix in descriptor form is zero.

The package works on generalized state-space realizations
``G(lam) = C (lam*E - A)^-1 B + D`` that may be non-minimal and may have
singular ``E``.  It offers five independent zero-ness tests (minimal
reduction, remapped peak gain, pencil normal rank, response sampling,
and pencil sampling), the reductions and frequency-domain analysis they
are built from, a flat-file realization format, and a benchmark harness
with a CLI front end.

The top level holds what a caller needs to build realizations and ask
for verdicts; everything else is reached through its submodule
(``nullrank.reductions``, ``nullrank.analysis``, ...).
"""

from . import analysis, bench, checks, core, dssfile, kernels, reductions
from .checks import MethodResult, check_nullrank
from .core import CONTINUOUS, DISCRETE, DescriptorSystem, make_system, subtract
from .errors import PoleEvaluationError, ReductionError, ShapeError

__version__ = "0.1.0"

__all__ = [
    "CONTINUOUS",
    "DISCRETE",
    "DescriptorSystem",
    "MethodResult",
    "PoleEvaluationError",
    "ReductionError",
    "ShapeError",
    "check_nullrank",
    "make_system",
    "subtract",
]
