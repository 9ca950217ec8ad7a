"""Geometric-phase quadrature and predicted gates.

The rotation produced by a protocol is a path-ordered exponential of the
gauge connection over the dark pair.  Because that connection stays
proportional to a single antisymmetric generator along both protocol
families, the path ordering collapses and the gate reduces to a single
angle obtained by quadrature:

* y protocol: angle = integral of sin(phi_pump) d(theta), realized as the
  rotation [[cos, -sin], [sin, cos]] on (|0>, |1>).
* z protocol: the same construction with the Zeeman mixing angle gives the
  fractional-STIRAP phase; at value pi/4 the driven population returns to
  |1> and the Stokes phase is carried into the spin state.

Each integrand sin(phi) theta'(t) is built once per pulse set, as one flat
closure (darkspace.angle_rate_y / angle_rate_z), and handed to scipy's
adaptive quad over the symmetric hull of the set's window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import darkspace
from .model import ModelParams
from .pulses import PulseSet

QUAD_ABS_TOL = 1e-10
QUAD_ERROR_CEILING = 1e-6  # rad; results above this are rejected
_QUAD_LIMIT = 200  # subintervals of the adaptive quadrature


@dataclass(frozen=True)
class HolonomyResult:
    """One quadrature outcome: the angle and its error bookkeeping."""

    angle: float                 # rad, reported magnitude convention
    grid_points: int             # integrand evaluations used
    quad_error: float            # quadrature error estimate, rad


def _run_quad(integrand, pulses: PulseSet):
    # The symmetric hull of the window, not the window itself: a z set's
    # window ends 8 widths after its last pulse, and integrating over it
    # instead moves the z angle by 1.6e-3 rad at delay ratio 0.1, 5.1e-5 at
    # 0.5, 1.8e-8 at 1 and less than 2e-12 from 1.5 on.  Which range is right
    # is open (ROADMAP item 1).
    lo, hi = pulses.window()
    half = max(-lo, hi)
    value, err, info = quad(integrand, -half, half,
                            epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=_QUAD_LIMIT,
                            full_output=True)[:3]
    if err > QUAD_ERROR_CEILING:
        raise ValueError(f"holonomy quadrature did not converge (error estimate {err:.2e} rad)")
    return value, err, int(info["neval"])


def geometric_angle_y(pulses: PulseSet) -> HolonomyResult:
    """Rotation angle of the y protocol: integral of sin(phi) theta'(t) dt.

    Depends only on envelope ratios, so it is invariant under a common
    rescaling of the three amplitudes; it does not involve the Zeeman
    splitting.
    """
    value, err, neval = _run_quad(darkspace.angle_rate_y(pulses), pulses)
    return HolonomyResult(angle=value, grid_points=neval, quad_error=err)


def geometric_phase_z(pulses: PulseSet, params: ModelParams) -> HolonomyResult:
    """Fractional-STIRAP geometric phase of the z protocol.

    The line integral of sin(phi_zeeman) theta'(t) dt is reported as a
    magnitude in [0, pi/4] for the two-part-drive family.  Invariant under
    joint rescaling of amplitudes and Zeeman splitting.
    """
    value, err, neval = _run_quad(darkspace.angle_rate_z(pulses, params.delta), pulses)
    return HolonomyResult(angle=abs(value), grid_points=neval, quad_error=err)


def predicted_ry(angle: float) -> np.ndarray:
    """Geometric y rotation [[cos, -sin], [sin, cos]] on (|0>, |1>)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def predicted_rz(phase: float) -> np.ndarray:
    """Phase gate diag(1, e^{i phase}): |0> untouched, |1> phased."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phase)]], dtype=complex)

