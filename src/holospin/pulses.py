"""Laser-field envelopes and named pulse sets.

Units: time in picoseconds, envelope values are half Rabi frequencies in
rad/ps (the envelopes are exactly the coupling strengths entering the
Hamiltonians, with no extra factor of two anywhere).  Every envelope is
one ``Envelope``: its amplitude times a sum of Gaussians
exp(-((t - c) / width)^2), one per entry of its non-empty ``centers``.
Amplitudes, centers and widths must be finite, amplitudes non-negative and
widths positive.  A constant field is no envelope: it is a ``model.Drive``
without terms, whose h0 is the whole Hamiltonian.

Two protocol families are provided:

* y rotation: three delayed Gaussians (driving at -tau0, pump at 0, Stokes
  at +tau0).  The delay's sign sets the sweep direction: a negative delay
  with the pump off is the return pass that closes a loop (STIRAP run in
  reverse order).
* z rotation (fractional STIRAP): Stokes Gaussian at 0 and a driving
  field of two Gaussians (at -tau0 and at 0), so the two envelopes
  terminate with a frozen amplitude ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check(envelope) -> None:
    """Raise unless the amplitude is non-negative and finite, the centers a
    non-empty tuple of finite floats, and the width positive and finite.
    Each comparison is false for NaN."""
    if not 0.0 <= envelope.amplitude < math.inf:
        raise ValueError("envelope amplitude must be non-negative and finite")
    if not (isinstance(envelope.centers, tuple) and envelope.centers
            and all(isinstance(c, (int, float)) and math.isfinite(c) for c in envelope.centers)):
        raise ValueError("envelope centers must be a non-empty tuple of finite floats")
    if not 0.0 < envelope.width < math.inf:
        raise ValueError("envelope width must be positive and finite")


@dataclass(frozen=True)
class Envelope:
    """amplitude * sum over centers c of exp(-((t - c) / width)^2).  A pump,
    Stokes or driving pulse has one center, the fractional-STIRAP drive
    two."""

    amplitude: float
    centers: tuple
    width: float

    def __post_init__(self):
        _check(self)

    def __call__(self, t):
        """The value at a time t, or at each time of an array: math.exp for
        a scalar, so scalar values keep their bits, and np.exp for an array,
        which matches them to rounding."""
        exp, total = _exp_and_zero(t)
        for c in self.centers:
            x = (t - c) / self.width
            total += exp(-x * x)
        return self.amplitude * total

    def derivative(self, t):
        """The time derivative at a time t, or at each time of an array, with
        the exp of __call__."""
        exp, total = _exp_and_zero(t)
        for c in self.centers:
            x = (t - c) / self.width
            total += -2.0 * x / self.width * self.amplitude * exp(-x * x)
        return total


def _exp_and_zero(t) -> tuple:
    """np.exp and a zero array of t's shape for an array t, else math.exp
    and 0.0."""
    if isinstance(t, np.ndarray):
        return np.exp, np.zeros(t.shape)
    return math.exp, 0.0


# The benchmark tracer patches the envelope methods under these names; they
# go once it patches Envelope (ROADMAP item 3).
GaussianPulse = TwoPartPulse = ConstantPulse = Envelope


def components(envelopes) -> tuple:
    """The Gaussian components of the envelopes, in order: contiguous arrays
    of each component's envelope index, amplitude, center and width, one
    entry per center.  Anything but an Envelope raises, by its type's
    name."""
    for envelope in envelopes:
        if not isinstance(envelope, Envelope):
            raise ValueError(f"a pulse set's components need Envelopes, "
                             f"not {type(envelope).__name__}")
    table = [(k, envelope.amplitude, center, envelope.width)
             for k, envelope in enumerate(envelopes) for center in envelope.centers]
    index, amplitude, center, width = np.array(table, dtype=float).reshape(-1, 4).T.copy()
    return index.astype(np.intp), amplitude, center, width


@dataclass(frozen=True)
class PulseSet:
    """The three envelopes of one protocol segment plus the Stokes phase."""

    pump: Envelope
    stokes: Envelope
    driving: Envelope
    stokes_phase: float = 0.0

    def window(self, margin: float = 8.0) -> tuple[float, float]:
        """Truncation window: margin widths before the earliest Gaussian center
        and after the latest; at margin 8 the tails at the edges are < 1e-27
        of peak."""
        edges = [c + side * margin * env.width for env in (self.pump, self.stokes, self.driving)
                 for c in env.centers for side in (-1.0, 1.0)]
        return (min(edges), max(edges))


def make_y_pulseset(amp_p: float, amp_s: float, amp_d: float,
                    tau0: float, tau: float) -> PulseSet:
    """y-rotation set: driving at -tau0, pump at 0, Stokes at +tau0.

    The sign of tau0 sets the sweep direction: a positive delay carries the
    Stokes/driving mixing angle from 0 to pi/2, a negative one from pi/2
    back to 0.  With amp_p = 0 and a negative delay this is the pump-free
    return pass of a closed y loop, which adds no geometric angle.
    """
    return PulseSet(
        pump=Envelope(amp_p, (0.0,), tau),
        stokes=Envelope(amp_s, (+tau0,), tau),
        driving=Envelope(amp_d, (-tau0,), tau),
    )


def make_z_pulseset(amp_s: float, amp_d: float, tau0: float, tau: float,
                    phi: float) -> PulseSet:
    """Fractional-STIRAP set: the two envelopes end at a frozen ratio.

    Stokes is one Gaussian at 0; the driving field is one envelope with two
    centers, -tau0 and 0, so Stokes/driving -> amp_s/amp_d as t -> +inf.
    phi is the relative phase of the Stokes field against the driving
    field.  The pump is off: a zero-amplitude pulse at the Stokes center,
    so it widens no window.
    """
    return PulseSet(
        pump=Envelope(0.0, (0.0,), tau),
        stokes=Envelope(amp_s, (0.0,), tau),
        driving=Envelope(amp_d, (-tau0, 0.0), tau),
        stokes_phase=phi,
    )
