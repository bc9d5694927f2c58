"""Weak-sequential measurement statistics and quasiprobability analysis.

Simulates two-time measurement schemes on small quantum systems: a projective
first measurement can be softened into a strength-tunable POVM by coupling the
system to a pointer, and the resulting joint statistics support commensurate
and Margenau-Hill quasiprobability distributions, their weak variants, and
reconstruction from finite-statistics data.
"""

from . import core, quasiprob, sampling, schemes
from .core import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403
from .quasiprob import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public names are each module's own __all__
__all__ = [*core.__all__, *schemes.__all__, *quasiprob.__all__, *sampling.__all__]
