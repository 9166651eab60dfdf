"""Accelerated-flow instability analysis and restart-based stabilization.

The library splits a driving vector field into conservative and rotational
parts, certifies instability of the accelerated flow under linear
non-conservative driving via spectral averaging, and simulates / verifies
the restarting hybrid system that recovers exponential stability.
"""

from . import averaging, fields, hybrid, odesim
from .averaging import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .hybrid import *  # noqa: F401,F403
from .odesim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*fields.__all__, *odesim.__all__, *averaging.__all__, *hybrid.__all__]
