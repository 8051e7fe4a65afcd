"""Curves orthogonal to the line family y = m x - 2m - m^3.

Closed-form geometry (``core_model``), cubic slope roots (``roots``),
the integrating-factor first integral (``exact_ode``), implicit-ODE
tracing (``tracer``), geometric validation (``geometry_analysis``),
verification suites (``verification``), and the CLI / SVG front end
(``cli_plot``).  The package exports the ``__all__`` names of the first
five modules and of ``errors``; each module declares its own.
"""

from . import core_model, errors, exact_ode, geometry_analysis, roots, tracer
from .core_model import *
from .errors import *
from .exact_ode import *
from .geometry_analysis import *
from .roots import *
from .tracer import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core_model, roots, exact_ode, tracer, geometry_analysis, errors)
    for name in module.__all__
] + ["__version__"]
