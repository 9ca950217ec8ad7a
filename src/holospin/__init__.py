"""holospin: holonomic control simulator for a five-level hole-spin qubit."""

__version__ = "0.1.0"

from . import darkspace, holonomy, model, propagate, pulses, qcore, scenarios  # noqa: F401
