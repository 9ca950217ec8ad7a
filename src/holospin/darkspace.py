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
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .pulses import GaussianPulse, PulseSet, TwoPartPulse
from .qcore import DIM, IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO


def mixing_theta(omega_s: float, omega_d: float) -> float:
    """atan2(omega_s, omega_d) in [0, pi/2].

    0 once both fields have vanished: then neither |1> nor |a> couples, so
    every theta gives a dark frame (the convention of mixing_phi_y).
    """
    if omega_s < 0.0 or omega_d < 0.0:
        raise ValueError("field amplitudes must be non-negative")
    return math.atan2(omega_s, omega_d)


def mixing_phi_y(omega_p: float, omega_s: float, omega_d: float) -> float:
    """atan2(omega_p, hypot(omega_s, omega_d)) in [0, pi/2].

    0 once all fields have vanished: in every y set's tails the pump is not
    the outermost field, so that is the protocol's limit (as in angle_rate_y).
    """
    if min(omega_p, omega_s, omega_d) < 0.0:
        raise ValueError("field amplitudes must be non-negative")
    return math.atan2(omega_p, math.hypot(omega_s, omega_d))


def mixing_phi_z(delta: float, omega_s: float, omega_d: float) -> float:
    """atan2(delta/2, sqrt(2 (omega_s^2 + omega_d^2))) in [0, pi/2].

    Well defined even for vanished fields (limit pi/2) as long as delta > 0;
    zero splitting with live fields gives 0.
    """
    if delta < 0.0:
        raise ValueError("electron Zeeman splitting must be non-negative")
    if delta == 0.0 and omega_s == 0.0 and omega_d == 0.0:
        raise ValueError("mixing angle undefined: no splitting and no fields")
    return math.atan2(delta / 2.0, math.sqrt(2.0 * (omega_s ** 2 + omega_d ** 2)))


def dark_states_y(theta: float, phi: float) -> np.ndarray:
    """Dark frame (5x2, columns d1, d2) of the y configuration; no support on
    the electron levels.

        d1 = cos(theta)|1> - sin(theta)|a>
        d2 = cos(phi)|0> - sin(phi) sin(theta)|1> - sin(phi) cos(theta)|a>
    """
    frame = np.zeros((DIM, 2), dtype=complex)
    frame[IDX_ZERO, 1] = math.cos(phi)
    frame[IDX_ONE] = math.cos(theta), -math.sin(phi) * math.sin(theta)
    frame[IDX_ANC] = -math.sin(theta), -math.sin(phi) * math.cos(theta)
    return frame


def dark_states_z(theta: float, phi: float, stokes_phase: float) -> np.ndarray:
    """Dark frame (5x2, columns d1, d2) of the midpoint-tuned z configuration.

        d1 = cos(theta) e^{i phase}|1> - sin(theta)|a>
        d2 = cos(phi)(|e1> - |e2>)/sqrt2 + sin(phi) cos(theta)|a>
             + sin(phi) sin(theta) e^{i phase}|1>

    d2 acquires electron-level support away from the weak-field limit
    (phi -> pi/2 when the fields vanish).
    """
    ph = np.exp(1j * stokes_phase)
    frame = np.zeros((DIM, 2), dtype=complex)
    frame[IDX_E1, 1] = math.cos(phi) / math.sqrt(2.0)
    frame[IDX_E2, 1] = -math.cos(phi) / math.sqrt(2.0)
    frame[IDX_ONE] = math.cos(theta) * ph, math.sin(phi) * math.sin(theta) * ph
    frame[IDX_ANC] = -math.sin(theta), math.sin(phi) * math.cos(theta)
    return frame


def connection_y(phi: float) -> np.ndarray:
    """Analytic gauge connection (per unit theta) in the ordered (d1, d2) basis.

    Real antisymmetric: A[0,1] = -sin(phi), A[1,0] = +sin(phi); equal to
    -i sin(phi) sigma_y.
    """
    s = math.sin(phi)
    return np.array([[0.0, -s], [s, 0.0]], dtype=complex)


def connection_numeric(basis_at, theta: float, h: float) -> np.ndarray:
    """Central-difference connection D(theta)^dag (D(theta+h) - D(theta-h)) / 2h.

    ``basis_at`` maps theta -> 5x2 dark frame.  Only the anti-Hermitian part
    is returned (the Hermitian part is pure discretization noise).
    """
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    a = basis_at(theta).conj().T @ ((basis_at(theta + h) - basis_at(theta - h)) / (2.0 * h))
    return 0.5 * (a - a.conj().T)


def darkness_residual(hamiltonian: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Norms ||H d1||, ||H d2|| of the frame's columns; both vanish for a
    matched configuration."""
    h = np.asarray(hamiltonian, dtype=complex)
    return np.array([np.linalg.norm(h @ pair[:, k]) for k in range(2)])


# ---------------------------------------------------------------------------
# Protocol-level angle rates evaluated from a PulseSet.  They use the
# envelopes' analytic derivatives through the exact ratio formulas, so no
# finite differencing enters the holonomy quadrature.
# ---------------------------------------------------------------------------

def theta_rate(pulses: PulseSet, t: float) -> float:
    """d theta / dt from the envelope derivatives (exact ratio formula)."""
    om_s = pulses.stokes(t)
    om_d = pulses.driving(t)
    denom = om_s * om_s + om_d * om_d
    if denom == 0.0:
        return 0.0
    return (pulses.stokes.derivative(t) * om_d - om_s * pulses.driving.derivative(t)) / denom


def _fields(envelope, kind) -> tuple:
    """The envelope's amplitude, centers and width, the contract every
    envelope kind shares, read once per integrand."""
    if type(envelope) is not kind:
        raise ValueError(f"the holonomy integrand needs a {kind.__name__} here, "
                         f"not {type(envelope).__name__}")
    return envelope.amplitude, envelope.centers, envelope.width


# The two closures below are the holonomy integrands sin(phi) * theta'(t).
# They inline GaussianPulse/TwoPartPulse values and derivatives, theta_rate
# and sin(phi) in the same operation order, so each value is bit-identical
# to the one built from the envelope methods; a Gaussian's value and slope
# share one exp.

def angle_rate_y(pulses: PulseSet):
    """t -> sin(phi_pump) * d theta/dt for a make_y_pulseset set (0 where the
    fields have vanished)."""
    a_p, (c_p,), w_p = _fields(pulses.pump, GaussianPulse)
    a_s, (c_s,), w_s = _fields(pulses.stokes, GaussianPulse)
    a_d, (c_d,), w_d = _fields(pulses.driving, GaussianPulse)
    exp, sqrt = math.exp, math.sqrt

    def rate(t: float) -> float:
        x = (t - c_p) / w_p
        om_p = a_p * exp(-x * x)
        x = (t - c_s) / w_s
        e = exp(-x * x)
        om_s = a_s * e
        ds = -2.0 * x / w_s * a_s * e
        x = (t - c_d) / w_d
        e = exp(-x * x)
        om_d = a_d * e
        dd = -2.0 * x / w_d * a_d * e
        norm = sqrt(om_p ** 2 + om_s ** 2 + om_d ** 2)
        sin_phi = 0.0 if norm == 0.0 else om_p / norm
        denom = om_s * om_s + om_d * om_d
        if denom == 0.0:
            return 0.0
        return sin_phi * ((ds * om_d - om_s * dd) / denom)

    return rate


def angle_rate_z(pulses: PulseSet, delta: float):
    """t -> sin(phi_zeeman) * d theta/dt for a make_z_pulseset set; the pump
    is off and does not enter."""
    a_s, (c_s,), w_s = _fields(pulses.stokes, GaussianPulse)
    a_d, (c_e, c_l), w_d = _fields(pulses.driving, TwoPartPulse)
    exp, hypot = math.exp, math.hypot
    half = delta / 2.0
    root2 = math.sqrt(2.0)

    def rate(t: float) -> float:
        x = (t - c_s) / w_s
        e = exp(-x * x)
        om_s = a_s * e
        ds = -2.0 * x / w_s * a_s * e
        xe = (t - c_e) / w_d
        xl = (t - c_l) / w_d
        ee = exp(-xe * xe)
        el = exp(-xl * xl)
        om_d = a_d * (ee + el)
        dd = -2.0 * a_d / w_d * (xe * ee + xl * el)
        sin_phi = half / hypot(half, root2 * hypot(om_s, om_d))
        denom = om_s * om_s + om_d * om_d
        if denom == 0.0:
            return 0.0
        return sin_phi * ((ds * om_d - om_s * dd) / denom)

    return rate


def phi_rate_y(pulses: PulseSet, t: float) -> float:
    """d/dt of the pump mixing angle (zero where all fields vanished)."""
    om_p = pulses.pump(t)
    om_s = pulses.stokes(t)
    om_d = pulses.driving(t)
    g2 = om_s * om_s + om_d * om_d
    total = om_p * om_p + g2
    if total == 0.0:
        return 0.0
    g = math.sqrt(g2)
    gdot = 0.0 if g == 0.0 else (om_s * pulses.stokes.derivative(t)
                                 + om_d * pulses.driving.derivative(t)) / g
    return (pulses.pump.derivative(t) * g - om_p * gdot) / total


def phi_rate_z(pulses: PulseSet, t: float, delta: float) -> float:
    """d/dt of the Zeeman mixing angle."""
    om_s = pulses.stokes(t)
    om_d = pulses.driving(t)
    half = delta / 2.0
    g2 = om_s * om_s + om_d * om_d
    if g2 == 0.0:
        return 0.0
    fdot = math.sqrt(2.0) * (om_s * pulses.stokes.derivative(t)
                             + om_d * pulses.driving.derivative(t)) / math.sqrt(g2)
    return -half * fdot / (half * half + 2.0 * g2)


def bright_splitting(pulses: PulseSet, t: float, params: ModelParams) -> float:
    """Dark-to-bright eigenvalue splitting; a z set's pump is off, so its
    term adds nothing there."""
    f2 = 2.0 * (pulses.pump(t) ** 2 + pulses.stokes(t) ** 2 + pulses.driving(t) ** 2)
    return 2.0 * math.sqrt(f2 + (params.delta / 2.0) ** 2)


def adiabaticity_ratio(pulses: PulseSet, params: ModelParams, times,
                       config: str) -> float:
    """max over `times` of |mixing-angle rate| / bright splitting.

    The classic sufficient condition for confinement to the dark space asks
    this to be small throughout the dynamically active window (the ratio
    diverges harmlessly in the far tails where the couplings themselves are
    negligible, so callers should restrict `times` to the pulse support).
    """
    if config not in ("y", "z"):
        raise ValueError("config must be 'y' or 'z'")
    worst = 0.0
    for t in times:
        phi_rate = phi_rate_y(pulses, t) if config == "y" else phi_rate_z(pulses, t, params.delta)
        rate = max(abs(theta_rate(pulses, t)), abs(phi_rate))
        gap = bright_splitting(pulses, t, params)
        if gap > 0.0:
            worst = max(worst, rate / gap)
    return worst
