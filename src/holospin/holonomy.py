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

The y integrand sin(phi) theta'(t) is one flat closure per pulse set
(darkspace.angle_rate_y), handed to scipy's adaptive quad over the set's
window.  The z phase is integrated in theta itself, over the theta range of
the set's window, by one fixed Gauss-Legendre rule evaluated over many sets
at once as numpy arrays (``phases_z``); a z set's t(theta) is explicit, so
nothing underflows at any delay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from . import darkspace
from .model import ModelParams
from .pulses import PulseSet, components

QUAD_ABS_TOL = 1e-10
QUAD_ERROR_CEILING = 1e-6  # rad; results above this are rejected
_QUAD_LIMIT = 200  # subintervals of the adaptive quadrature
# the z rule: a phase is its 2n-node value, its error estimate the distance
# to its n-node value.  Over 644 delay ratios from 1e-9 to 40, at n = 128
# the estimate reaches 1.5e-5 (ratio 0.12), above the ceiling; at 256 it
# stays below 2.2e-8 and the phases within 1e-10 of a 2048-node rule
_Z_NODES = 256
# sets per array evaluation: a block's arrays hold 64 x 512 nodes (256 kB)
_Z_BLOCK = 64


@dataclass(frozen=True)
class HolonomyResult:
    """One quadrature outcome: the angle and its error bookkeeping."""

    angle: float                 # rad, reported magnitude convention
    grid_points: int             # integrand evaluations used
    quad_error: float            # quadrature error estimate, rad


def geometric_angle_y(pulses: PulseSet) -> HolonomyResult:
    """Rotation angle of the y protocol: integral of sin(phi) theta'(t) dt
    over the set's window.

    Depends only on envelope ratios, so it is invariant under a common
    rescaling of the three amplitudes; it does not involve the Zeeman
    splitting.
    """
    value, err, info = quad(darkspace.angle_rate_y(pulses), *pulses.window(),
                            epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=_QUAD_LIMIT,
                            full_output=True)[:3]
    if err > QUAD_ERROR_CEILING:
        raise ValueError(f"holonomy quadrature did not converge (error estimate {err:.2e} rad)")
    return HolonomyResult(angle=value, grid_points=int(info["neval"]), quad_error=err)


def _legendre(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1): the
    nodes by Newton's method on P_n from the guesses cos(pi (k - 1/4) /
    (n + 1/2)), k = n..1, and the weights 2 / ((1 - x^2) P_n'(x)^2), both
    symmetrized.  Four steps reach numpy's leggauss nodes to 1.1e-16 for
    n = 1..39, 64, 128, 256, 512 and 1024; five are taken.  leggauss takes the
    eigenvalues of a dense n x n matrix, which at n = 512 adds 5 MB to a
    gate run's peak memory."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p, slope = _legendre(n, x)
        x = x - p / slope
    _, slope = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


@functools.cache
def _theta_rule(n: int) -> tuple:
    """The n-node Gauss-Legendre rule in s over (0, 1) under the cosine map
    theta = lo + (hi - lo) sin^2(pi s / 2), which crowds the nodes toward
    both ends of the theta range: each node's fractions of the range below
    and above it, sin^2 and cos^2 (each without cancellation), and the
    weights, which sum to 1."""
    x, w = _gauss_legendre(n)
    below = np.sin(np.pi / 4.0 * (1.0 + x)) ** 2
    above = np.sin(np.pi / 4.0 * (1.0 - x)) ** 2
    return below, above, w * (np.pi / 4.0) * np.sin(np.pi / 2.0 * (1.0 + x))


def _z_layout(pulses: PulseSet) -> tuple:
    """(a_s, a_d, rho, v_lo, v_hi) of a make_z_pulseset set, read from its
    components: the peaks of the one-center Stokes envelope and of the
    two-center driving envelope, and the delay and the window's ends in
    widths, the ends measured from the late center."""
    index, amplitude, center, width = components((pulses.stokes, pulses.driving))
    if (pulses.pump.amplitude != 0.0 or index.tolist() != [0, 1, 1]
            or not width[0] == width[1] == width[2] or center[0] != center[2]
            or not center[1] <= center[2]):
        raise ValueError("the z phase needs a make_z_pulseset layout: the pump off, a "
                         "one-center Stokes field and a two-center drive of one width, "
                         "the Stokes center on the late drive center, the early one not after it")
    lo, hi = pulses.window()
    late, tau = center[2], width[0]
    return amplitude[0], amplitude[1], (late - center[1]) / tau, (lo - late) / tau, (hi - late) / tau


def _phase_block(a_s, a_d, rho, v_lo, v_hi, delta: float) -> tuple:
    """Phases and error estimates of rows of z sets, each row the
    integral of sin(phi_zeeman) d(theta) over the theta range of its window.

    With v = (t - late center) / width, tan(theta) = (a_s / a_d) g(v) for
    the logistic g(v) = expit(2 v rho + rho^2), so t(theta) is explicit, and
    Omega_s^2 + Omega_d^2 = Omega_s^2 / sin^2(theta) gives sin(phi) =
    1 / sqrt(1 + e^ls) with ls = ln(8 a_s^2 / delta^2) - 2 v^2 - 2 ln sin(theta);
    every quantity stays a logarithm, so nothing underflows.  The rows are
    reduced over the nodes along their own axis, so a row's result does not
    depend on the other rows of its block."""
    x_lo, x_hi = 2.0 * v_lo * rho + rho * rho, 2.0 * v_hi * rho + rho * rho
    g_lo, g_hi = expit(x_lo), expit(x_hi)
    # theta at the window's start, the end's distance to the limit
    # theta_r = atan(a_s / a_d) (1 - g_hi = expit(-x_hi) without
    # cancellation), and the range between them, each by the tangent
    # addition formula, so the range of a zero delay is exactly 0
    theta_lo = np.arctan2(a_s * g_lo, a_d)
    gap_hi = np.arctan2(a_s * a_d * expit(-x_hi), a_d * a_d + a_s * a_s * g_hi)
    span = np.arctan2(a_s * a_d * (g_hi - g_lo), a_d * a_d + a_s * a_s * g_hi * g_lo)
    phases, errors = np.zeros_like(span), np.zeros_like(span)
    live = span > 0.0
    a_s, a_d, rho, theta_lo, gap_hi, span = (
        v[live][:, None] for v in (a_s, a_d, rho, theta_lo, gap_hi, span))
    log_cos_r = np.log(a_d / np.hypot(a_s, a_d))
    log_k = np.log(8.0 * (a_s / delta) ** 2)
    integrals = []
    for n in (_Z_NODES, 2 * _Z_NODES):
        below, above, weights = _theta_rule(n)
        log_sin = np.log(np.sin(theta_lo + span * below))
        # 2 v rho + rho^2 = logit(g) = -ln((a_s / a_d) cot(theta) - 1)
        #                 = ln sin(theta) + ln cos(theta_r) - ln sin(theta_r - theta)
        v = (log_sin + log_cos_r - np.log(np.sin(gap_hi + span * above)) - rho * rho) / (2.0 * rho)
        sin_phi = np.exp(-0.5 * np.logaddexp(0.0, log_k - 2.0 * v * v - 2.0 * log_sin))
        integrals.append(span[:, 0] * (sin_phi * weights).sum(axis=1))
    phases[live] = integrals[1]
    errors[live] = np.abs(integrals[1] - integrals[0])
    return phases, errors


def phases_z(sets, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(phases, error estimates) of the fractional-STIRAP geometric phase of
    each make_z_pulseset set: the integral of sin(phi_zeeman) d(theta) over
    the theta range of the set's window, by one fixed rule evaluated over
    blocks of sets as arrays.  The estimate is the distance between the
    rule's n- and 2n-node values; a zero delay gives exactly 0."""
    # one contiguous row per parameter, so each block's columns are too
    columns = np.array([_z_layout(pulses) for pulses in sets], dtype=float).T.copy()
    blocks = [_phase_block(*columns[:, i:i + _Z_BLOCK], params.delta)
              for i in range(0, columns.shape[1], _Z_BLOCK)]
    return (np.concatenate([phases for phases, _ in blocks]),
            np.concatenate([errors for _, errors in blocks]))


def geometric_phase_z(pulses: PulseSet, params: ModelParams) -> HolonomyResult:
    """Fractional-STIRAP geometric phase of one z set (``phases_z``), a
    magnitude in [0, pi/4] for the equal-peak family.  Invariant under joint
    rescaling of amplitudes and Zeeman splitting.
    """
    (phase,), (error,) = phases_z((pulses,), params)
    return HolonomyResult(angle=float(phase), grid_points=3 * _Z_NODES, quad_error=float(error))


def predicted_ry(angle: float) -> np.ndarray:
    """Geometric y rotation [[cos, -sin], [sin, cos]] on (|0>, |1>)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def predicted_rz(phase: float) -> np.ndarray:
    """Phase gate diag(1, e^{i phase}): |0> untouched, |1> phased."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phase)]], dtype=complex)

