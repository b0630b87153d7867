"""Exact dynamics of the quantum Rabi model in its two effective frames.

The model splits into a rotating (Jaynes-Cummings) and a counter-rotating
(anti-Jaynes-Cummings) component with separately conserved excitation
numbers. This package builds the operators, solves the dynamics in closed
form in both frames, cross-validates every closed form against a dense
eigendecomposition propagator, and ships a CLI for time series, figures,
and self-verification. Each module's public names are the package's.
"""

from .errors import *
from .hilbert import *
from .model import *
from .analytic import *
from .oracle import *
from .runner import *

__version__ = "0.1.0"
