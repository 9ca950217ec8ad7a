"""Rotating-frame Hamiltonians and dissipation channels.

Two driven configurations of the five-level system are built here:

* ``build_h_y``: pump couples |0>, Stokes couples |1>, driving couples |a>,
  all to both electron levels with equal strength; the three fields share a
  common one-photon detuning (three-photon resonance).  Used for the
  geometric y rotation.
* ``build_h_z``: pump off, |0> fully decoupled; Stokes (with relative phase)
  and driving tuned to the midpoint of the two electron levels.  Used for
  the fractional-STIRAP z protocol.

The same two Hamiltonians also come as drive templates, ``drive_y`` and
``drive_z``: a ``Drive`` holds H(t) = h0 + sum_k f_k(t) K_k with the three
real envelopes f_k and the fixed couplings K_k (the Stokes phase sits in
its K_k), built and checked once per protocol segment.  The builders stay
as the independent element-wise construction that tests and ``validate``
compare against.

Dissipation is Markovian: four equal exciton-recombination channels
(|e1,2> -> |0,1>) plus hole and electron spin-flip channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import PulseSet
from .qcore import DIM, IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO

BOHR_MAGNETON = 9.2740e-24   # J/T
HBAR = 1.0546e-34            # J*s

# Reference parameter set (rad/ps and 1/ps): electron Zeeman splitting for
# B_x = 55 mT with |g| = 0.21, recombination 1/(2*gamma) = 800 ps, and
# millisecond spin-flip times.
DELTA_DEFAULT = 1.016e-3
GAMMA_DEFAULT = 6.25e-4
GAMMA_HH_DEFAULT = 1e-9
GAMMA_EE_DEFAULT = 1e-9


def zeeman_from_field(b_field: float, g_factor: float) -> float:
    """Electron Zeeman splitting |g| mu_B B / hbar, converted to rad/ps."""
    if b_field < 0.0:
        raise ValueError("magnetic field must be non-negative")
    return abs(g_factor) * BOHR_MAGNETON * b_field / HBAR * 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Static system parameters (rates in 1/ps, frequencies in rad/ps)."""

    delta: float = DELTA_DEFAULT          # electron Zeeman splitting
    detuning: float = 0.0                 # common one-photon detuning (y config)
    gamma: float = GAMMA_DEFAULT          # recombination rate per channel
    gamma_hh: float = GAMMA_HH_DEFAULT    # hole spin-flip rate
    gamma_ee: float = GAMMA_EE_DEFAULT    # electron spin-flip rate

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("electron Zeeman splitting must be positive")
        if min(self.gamma, self.gamma_hh, self.gamma_ee) < 0.0:
            raise ValueError("decay rates must be non-negative")


def build_h_y(t: float, pulses: PulseSet, params: ModelParams) -> np.ndarray:
    """Three-photon-resonant Hamiltonian of the y configuration at time t.

    Diagonal (0, 0, 0, -detuning, -(detuning + delta)); every ground level
    couples to both electron levels with its own envelope.  The midpoint
    detuning -delta/2 is reserved for the z configuration and rejected.
    """
    if abs(params.detuning + params.delta / 2.0) <= 1e-12 * max(1.0, abs(params.delta)):
        raise ValueError("midpoint tuning reserved for z-configuration")
    h = np.zeros((DIM, DIM), dtype=complex)
    h[IDX_E1, IDX_E1] = -params.detuning
    h[IDX_E2, IDX_E2] = -(params.detuning + params.delta)
    om_p = pulses.pump(t)
    om_s = pulses.stokes(t) * np.exp(-1j * pulses.stokes_phase)
    om_d = pulses.driving(t)
    for e in (IDX_E1, IDX_E2):
        h[e, IDX_ZERO] = -om_p
        h[e, IDX_ONE] = -om_s
        h[e, IDX_ANC] = -om_d
        h[IDX_ZERO, e] = -om_p
        h[IDX_ONE, e] = -np.conj(om_s)
        h[IDX_ANC, e] = -om_d
    return h


def build_h_z(t: float, pulses: PulseSet, params: ModelParams) -> np.ndarray:
    """Midpoint-tuned Hamiltonian of the z configuration at time t.

    Two-photon resonance with both fields tuned halfway between the electron
    levels: diagonal (0, 0, 0, +delta/2, -delta/2).  |0> is exactly
    decoupled; the Stokes coupling carries exp(-i * stokes_phase).
    """
    if pulses.pump(t) != 0.0:
        raise ValueError("z-configuration requires a vanishing pump envelope")
    h = np.zeros((DIM, DIM), dtype=complex)
    h[IDX_E1, IDX_E1] = +params.delta / 2.0
    h[IDX_E2, IDX_E2] = -params.delta / 2.0
    om_s = pulses.stokes(t) * np.exp(-1j * pulses.stokes_phase)
    om_d = pulses.driving(t)
    for e in (IDX_E1, IDX_E2):
        h[e, IDX_ONE] = -om_s
        h[e, IDX_ANC] = -om_d
        h[IDX_ONE, e] = -np.conj(om_s)
        h[IDX_ANC, e] = -om_d
    return h


@dataclass(frozen=True, eq=False)
class Drive:
    """H(t) = h0 + sum_k f_k(t) K_k: a constant part plus fixed couplings K_k
    under real envelopes f_k, given as ``terms`` of (f_k, K_k) pairs.

    ``Drive(t)`` returns H(t); the integrators stack its terms once per solve.
    """

    h0: np.ndarray
    terms: tuple

    def __call__(self, t: float) -> np.ndarray:
        h = self.h0.copy()
        for envelope, coupling in self.terms:
            h += envelope(t) * coupling
        return h


def _coupling(ground: int, amp: complex) -> np.ndarray:
    """-amp |e><ground| - conj(amp) |ground><e| for both electron levels e."""
    k = np.zeros((DIM, DIM), dtype=complex)
    for e in (IDX_E1, IDX_E2):
        k[e, ground] = -amp
        k[ground, e] = -np.conj(amp)
    return k


def drive_y(pulses: PulseSet, params: ModelParams) -> Drive:
    """The y-configuration Hamiltonian of ``build_h_y`` as a drive template."""
    if abs(params.detuning + params.delta / 2.0) <= 1e-12 * max(1.0, abs(params.delta)):
        raise ValueError("midpoint tuning reserved for z-configuration")
    h0 = np.diag([0.0, 0.0, 0.0, -params.detuning,
                  -(params.detuning + params.delta)]).astype(complex)
    return Drive(h0, ((pulses.pump, _coupling(IDX_ZERO, 1.0)),
                      (pulses.stokes, _coupling(IDX_ONE, np.exp(-1j * pulses.stokes_phase))),
                      (pulses.driving, _coupling(IDX_ANC, 1.0))))


def drive_z(pulses: PulseSet, params: ModelParams) -> Drive:
    """The z-configuration Hamiltonian of ``build_h_z`` as a drive template;
    the pump must be off, and its term is left out."""
    if pulses.pump.amplitude != 0.0:
        raise ValueError("z-configuration requires a vanishing pump envelope")
    h0 = np.diag([0.0, 0.0, 0.0, params.delta / 2.0, -params.delta / 2.0]).astype(complex)
    return Drive(h0, ((pulses.stokes, _coupling(IDX_ONE, np.exp(-1j * pulses.stokes_phase))),
                      (pulses.driving, _coupling(IDX_ANC, 1.0))))


@dataclass(frozen=True)
class LindbladChannel:
    """Rank-one jump channel sqrt(rate) |target><source|."""

    rate: float
    source: int
    target: int

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("channel rate must be non-negative")

    def matrix(self) -> np.ndarray:
        op = np.zeros((DIM, DIM), dtype=complex)
        op[self.target, self.source] = np.sqrt(self.rate)
        return op


def lindblad_channels(params: ModelParams) -> list[LindbladChannel]:
    """The eight dissipation channels of the model.

    Four recombination channels at rate gamma each (both electron levels to
    both hole-spin levels), two hole spin flips at gamma_hh, and two
    electron spin flips at gamma_ee.
    """
    chans = []
    for e in (IDX_E1, IDX_E2):
        for g in (IDX_ZERO, IDX_ONE):
            chans.append(LindbladChannel(params.gamma, source=e, target=g))
    chans.append(LindbladChannel(params.gamma_hh, source=IDX_ONE, target=IDX_ZERO))
    chans.append(LindbladChannel(params.gamma_hh, source=IDX_ZERO, target=IDX_ONE))
    chans.append(LindbladChannel(params.gamma_ee, source=IDX_E2, target=IDX_E1))
    chans.append(LindbladChannel(params.gamma_ee, source=IDX_E1, target=IDX_E2))
    return chans
