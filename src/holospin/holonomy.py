"""Geometric-phase quadrature, path-ordered exponentials, predicted gates.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import darkspace
from .model import ModelParams
from .pulses import PulseSet
from .qcore import DIM, IDX_ANC, IDX_ONE, dense_expm

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
    window = pulses.window()
    value, err, info = quad(integrand, window[0], window[1],
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
    def integrand(t):
        return darkspace.sin_phi_y(pulses, t) * darkspace.theta_rate(pulses, t)

    value, err, neval = _run_quad(integrand, pulses)
    return HolonomyResult(angle=value, grid_points=neval, quad_error=err)


def geometric_phase_z(pulses: PulseSet, params: ModelParams) -> HolonomyResult:
    """Fractional-STIRAP geometric phase of the z protocol.

    The line integral of sin(phi_zeeman) theta'(t) dt is reported as a
    magnitude in [0, pi/4] for the two-part-drive family.  Invariant under
    joint rescaling of amplitudes and Zeeman splitting.
    """
    def integrand(t):
        return darkspace.sin_phi_z(pulses, t, params.delta) * darkspace.theta_rate(pulses, t)

    value, err, neval = _run_quad(integrand, pulses)
    return HolonomyResult(angle=abs(value), grid_points=neval, quad_error=err)


def path_ordered_exponential(samples) -> np.ndarray:
    """Ordered product of exp(A_k * step_k), later samples applied later.

    ``samples`` is an iterable of (matrix, step) pairs in path order; each
    matrix is a (2x2) connection sample, each step the parameter increment.
    Refining the partition converges at second order in the step.
    """
    u = np.eye(2, dtype=complex)
    for a, step in samples:
        if step <= 0.0:
            raise ValueError("path steps must be positive")
        u = dense_expm(np.asarray(a, dtype=complex), step) @ u
    return u


def predicted_ry(angle: float) -> np.ndarray:
    """Geometric y rotation [[cos, -sin], [sin, cos]] on (|0>, |1>)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def predicted_rz(phase: float) -> np.ndarray:
    """Phase gate diag(1, e^{i phase}): |0> untouched, |1> phased."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phase)]], dtype=complex)


def predicted_final_state_z(gamma_f: float, phase: float) -> np.ndarray:
    """Predicted z-protocol output for input |1> at frozen ratio pi/4.

    (1/sqrt2) [ e^{i phase}(sin g + cos g)|1> + (sin g - cos g)|a> ];
    exactly e^{i phase}|1> when the accumulated phase g reaches pi/4.
    """
    psi = np.zeros(DIM, dtype=complex)
    psi[IDX_ONE] = np.exp(1j * phase) * (math.sin(gamma_f) + math.cos(gamma_f)) / math.sqrt(2.0)
    psi[IDX_ANC] = (math.sin(gamma_f) - math.cos(gamma_f)) / math.sqrt(2.0)
    return psi


# Quarter turn about y in the Bloch-sphere convention, exp(-i sigma_y pi/4).
# The composite below conjugates the phase gate with it so that phase = pi
# yields sigma_x up to a global phase.
_BLOCH_QUARTER_Y = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)


def compose_rx(phase: float) -> np.ndarray:
    """Composite x rotation: quarter y turn, phase gate, inverse quarter turn."""
    return _BLOCH_QUARTER_Y.conj().T @ predicted_rz(phase) @ _BLOCH_QUARTER_Y
