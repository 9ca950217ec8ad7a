"""Rotating-frame Hamiltonians and jump operators.

Two driven configurations of the five-level system are built here:

* ``build_h_y``: pump couples |0>, Stokes couples |1>, driving couples |a>,
  all to both electron levels with equal strength; the three fields share a
  common one-photon detuning (three-photon resonance).  Used for the
  geometric y rotation.
* ``build_h_z``: the y Hamiltonian with the pump off, so |0> is fully
  decoupled, and the one-photon detuning at the midpoint -delta/2 of the
  electron levels, which ``ModelParams`` reserves for it.  Used for the
  fractional-STIRAP z protocol.

The same two Hamiltonians also come as drive templates, ``drive_y`` and
``drive_z``: a ``Drive`` holds H(t) = h0 + sum_k f_k(t) K_k with the three
real envelopes f_k and the fixed couplings K_k (the Stokes phase sits in
its K_k), built and checked once per protocol segment.  Both integrators
take only a ``Drive``; the builders are the independent element-wise
construction that the exponential oracle and the invariant checks use, at
one time or over an array of times.

Dissipation is Markovian, given by the jump operators of the master
equation (``lindblad_channels``): four equal exciton-recombination
channels (|e1,2> -> |0,1>) plus hole and electron spin-flip channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulses import PulseSet
from .qcore import DIM, IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO


@dataclass(frozen=True)
class ModelParams:
    """Static system parameters (rates in 1/ps, frequencies in rad/ps).

    The defaults are the reference parameter set: electron Zeeman splitting
    for B_x = 55 mT with |g| = 0.21, recombination 1/(2*gamma) = 800 ps, and
    millisecond spin-flip times.
    """

    delta: float = 1.016e-3   # electron Zeeman splitting
    detuning: float = 0.0     # common one-photon detuning (y config), never -delta/2
    gamma: float = 6.25e-4    # recombination rate per channel
    gamma_hh: float = 1e-9    # hole spin-flip rate
    gamma_ee: float = 1e-9    # electron spin-flip rate

    def __post_init__(self):
        # each comparison is false for NaN
        if not 0.0 < self.delta < math.inf:
            raise ValueError("electron Zeeman splitting must be positive and finite")
        if not math.isfinite(self.detuning):
            raise ValueError("one-photon detuning must be finite")
        if not all(0.0 <= rate < math.inf for rate in (self.gamma, self.gamma_hh, self.gamma_ee)):
            raise ValueError("decay rates must be non-negative and finite")
        if abs(self.detuning + self.delta / 2.0) <= 1e-12 * max(1.0, self.delta):
            raise ValueError("midpoint tuning reserved for z-configuration")


def build_h_y(t, pulses: PulseSet, params: ModelParams) -> np.ndarray:
    """Three-photon-resonant Hamiltonian of the y configuration at time t,
    or (..., 5, 5) at each time of an array.

    Diagonal (0, 0, 0, -detuning, -(detuning + delta)); every ground level
    couples to both electron levels with its own envelope.
    """
    h = np.zeros(np.shape(t) + (DIM, DIM), dtype=complex)
    h[..., IDX_E1, IDX_E1] = -params.detuning
    h[..., IDX_E2, IDX_E2] = -(params.detuning + params.delta)
    om_p = pulses.pump(t)
    om_s = pulses.stokes(t) * np.exp(-1j * pulses.stokes_phase)
    om_d = pulses.driving(t)
    for e in (IDX_E1, IDX_E2):
        h[..., e, IDX_ZERO] = -om_p
        h[..., e, IDX_ONE] = -om_s
        h[..., e, IDX_ANC] = -om_d
        h[..., IDX_ZERO, e] = -om_p
        h[..., IDX_ONE, e] = -np.conj(om_s)
        h[..., IDX_ANC, e] = -om_d
    return h


def build_h_z(t, pulses: PulseSet, params: ModelParams) -> np.ndarray:
    """Midpoint-tuned Hamiltonian of the z configuration at time t, or at
    each time of an array: the y Hamiltonian with the pump off and the
    one-photon detuning at the midpoint -delta/2, so the diagonal is (0, 0,
    0, +delta/2, -delta/2).  |0> is exactly decoupled; the Stokes coupling
    carries exp(-i * stokes_phase).
    """
    h = build_h_y(t, pulses, params)
    if np.any(h[..., IDX_E1, IDX_ZERO] != 0.0):
        raise ValueError("z-configuration requires a vanishing pump envelope")
    h[..., IDX_E1, IDX_E1] = +params.delta / 2.0
    h[..., IDX_E2, IDX_E2] = -params.delta / 2.0
    return h


@dataclass(frozen=True, eq=False)
class Drive:
    """H(t) = h0 + sum_k f_k(t) K_k: a constant part plus fixed couplings K_k
    under real envelopes f_k, given as ``terms`` of (f_k, K_k) pairs.

    ``Drive(t)`` returns H(t), or (..., 5, 5) at each time of an array; the
    integrators stack its terms once per solve.
    """

    h0: np.ndarray
    terms: tuple

    def __call__(self, t) -> np.ndarray:
        h = np.array(np.broadcast_to(self.h0, np.shape(t) + self.h0.shape))
        for envelope, coupling in self.terms:
            h += np.multiply.outer(envelope(t), coupling)
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
    h0 = np.diag([0.0, 0.0, 0.0, -params.detuning,
                  -(params.detuning + params.delta)]).astype(complex)
    return Drive(h0, ((pulses.pump, _coupling(IDX_ZERO, 1.0)),
                      (pulses.stokes, _coupling(IDX_ONE, np.exp(-1j * pulses.stokes_phase))),
                      (pulses.driving, _coupling(IDX_ANC, 1.0))))


def drive_z(pulses: PulseSet, params: ModelParams) -> Drive:
    """The z-configuration Hamiltonian of ``build_h_z`` as a drive template:
    the midpoint h0 over the Stokes and driving terms of ``drive_y``; the
    pump must be off, and its term is left out."""
    if pulses.pump.amplitude != 0.0:
        raise ValueError("z-configuration requires a vanishing pump envelope")
    h0 = np.diag([0.0, 0.0, 0.0, params.delta / 2.0, -params.delta / 2.0]).astype(complex)
    return Drive(h0, drive_y(pulses, params).terms[1:])


def lindblad_channels(params: ModelParams) -> list[np.ndarray]:
    """The eight jump operators sqrt(rate) |target><source| of the model.

    Four recombination channels at rate gamma each (both electron levels to
    both hole-spin levels), two hole spin flips at gamma_hh, and two
    electron spin flips at gamma_ee.
    """
    jumps = [(params.gamma, e, g) for e in (IDX_E1, IDX_E2) for g in (IDX_ZERO, IDX_ONE)]
    jumps += [(params.gamma_hh, IDX_ONE, IDX_ZERO), (params.gamma_hh, IDX_ZERO, IDX_ONE),
              (params.gamma_ee, IDX_E2, IDX_E1), (params.gamma_ee, IDX_E1, IDX_E2)]
    ops = []
    for rate, source, target in jumps:
        op = np.zeros((DIM, DIM), dtype=complex)
        op[target, source] = np.sqrt(rate)
        ops.append(op)
    return ops
