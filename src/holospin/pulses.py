"""Laser-field envelopes and named pulse sets.

Units: time in picoseconds, envelope values are half Rabi frequencies in
rad/ps (the envelopes are exactly the coupling strengths entering the
Hamiltonians, with no extra factor of two anywhere).  Every envelope is
its amplitude times a sum of Gaussians exp(-((t - c) / width)^2), one per
entry of its ``centers``; a constant envelope has none.  Amplitudes,
centers and widths must be finite, amplitudes non-negative and widths
positive.

Two protocol families are provided:

* y rotation: three delayed Gaussians (driving at -tau0, pump at 0, Stokes
  at +tau0).  The delay's sign sets the sweep direction: a negative delay
  with the pump off is the return pass that closes a loop (STIRAP run in
  reverse order).
* z rotation (fractional STIRAP): Stokes Gaussian at 0 and a two-part
  driving field (Gaussian at -tau0 plus Gaussian at 0), so the two
  envelopes terminate with a frozen amplitude ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check(pulse) -> None:
    """Raise unless the pulse's amplitude is non-negative and finite and its
    centers finite, and a Gaussian pulse's width positive and finite (a
    constant pulse has no center and an infinite width).  Each comparison
    is false for NaN."""
    if not 0.0 <= pulse.amplitude < math.inf:
        raise ValueError("pulse amplitude must be non-negative and finite")
    if not all(map(math.isfinite, pulse.centers)):
        raise ValueError("pulse centers must be finite")
    if pulse.centers and not 0.0 < pulse.width < math.inf:
        raise ValueError("pulse width must be positive and finite")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian envelope amp * exp(-(t-center)^2/width^2)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        _check(self)

    @property
    def centers(self) -> tuple:
        return (self.center,)

    def __call__(self, t: float) -> float:
        x = (t - self.center) / self.width
        return self.amplitude * math.exp(-x * x)

    def derivative(self, t: float) -> float:
        x = (t - self.center) / self.width
        return -2.0 * x / self.width * self.amplitude * math.exp(-x * x)


@dataclass(frozen=True)
class TwoPartPulse:
    """Sum of two equal-amplitude Gaussians (the fractional-STIRAP drive)."""

    amplitude: float
    early_center: float
    late_center: float
    width: float

    def __post_init__(self):
        _check(self)

    @property
    def centers(self) -> tuple:
        return (self.early_center, self.late_center)

    def __call__(self, t: float) -> float:
        xe = (t - self.early_center) / self.width
        xl = (t - self.late_center) / self.width
        return self.amplitude * (math.exp(-xe * xe) + math.exp(-xl * xl))

    def derivative(self, t: float) -> float:
        xe = (t - self.early_center) / self.width
        xl = (t - self.late_center) / self.width
        return (-2.0 * self.amplitude / self.width
                * (xe * math.exp(-xe * xe) + xl * math.exp(-xl * xl)))


@dataclass(frozen=True)
class ConstantPulse:
    """Flat envelope, used for continuous pumping and readout drives: it has
    no center and an infinite width."""

    amplitude: float
    centers = ()
    width = math.inf

    def __post_init__(self):
        _check(self)

    def __call__(self, t: float) -> float:
        return self.amplitude

    def derivative(self, t: float) -> float:
        return 0.0


OFF = ConstantPulse(0.0)


def components(envelopes) -> tuple:
    """The Gaussian components of the envelopes, in order: contiguous arrays
    of each component's envelope index, amplitude, center and width, one
    entry per center (a constant envelope has none).  An envelope of any
    other type raises, by its name."""
    for envelope in envelopes:
        if type(envelope) not in (GaussianPulse, TwoPartPulse, ConstantPulse):
            raise ValueError("a pulse set's components need GaussianPulse, TwoPartPulse or "
                             f"ConstantPulse envelopes, not {type(envelope).__name__}")
    table = [(k, envelope.amplitude, center, envelope.width)
             for k, envelope in enumerate(envelopes) for center in envelope.centers]
    index, amplitude, center, width = np.array(table, dtype=float).reshape(-1, 4).T.copy()
    return index.astype(np.intp), amplitude, center, width


def values_and_slopes(envelopes, times) -> tuple[np.ndarray, np.ndarray]:
    """Each envelope's values and time derivatives at an array of times, as
    two (len(envelopes), len(times)) arrays from one exp over every Gaussian
    component, each component's value and slope in a GaussianPulse's
    operation order; a constant envelope adds its amplitude and no slope."""
    times = np.asarray(times, dtype=float)
    index, amplitude, center, width = components(envelopes)
    x = (times - center[:, None]) / width[:, None]
    e = np.exp(-x * x)
    constants = [[0.0 if envelope.centers else envelope.amplitude] for envelope in envelopes]
    values = np.repeat(np.array(constants, dtype=float), len(times), axis=1)
    slopes = np.zeros_like(values)
    np.add.at(values, index, amplitude[:, None] * e)
    np.add.at(slopes, index, -2.0 * x / width[:, None] * amplitude[:, None] * e)
    return values, slopes


@dataclass(frozen=True)
class PulseSet:
    """The three envelopes of one protocol segment plus the Stokes phase."""

    pump: object
    stokes: object
    driving: object
    stokes_phase: float = 0.0

    def window(self, margin: float = 8.0) -> tuple[float, float]:
        """Truncation window: margin widths before the earliest Gaussian center
        and after the latest; at margin 8 the tails at the edges are < 1e-27
        of peak."""
        edges = [c + side * margin * env.width for env in (self.pump, self.stokes, self.driving)
                 for c in env.centers for side in (-1.0, 1.0)]
        if not edges:
            raise ValueError("a pulse set without a Gaussian envelope has no window")
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
        pump=GaussianPulse(amp_p, 0.0, tau),
        stokes=GaussianPulse(amp_s, +tau0, tau),
        driving=GaussianPulse(amp_d, -tau0, tau),
    )


def make_z_pulseset(amp_s: float, amp_d: float, tau0: float, tau: float,
                    phi: float) -> PulseSet:
    """Fractional-STIRAP set: the two envelopes end at a frozen ratio.

    Stokes is a Gaussian at 0; the driving field is a Gaussian at -tau0
    plus one at 0, so Stokes/driving -> amp_s/amp_d as t -> +inf.  phi is
    the relative phase of the Stokes field against the driving field.
    """
    return PulseSet(
        pump=OFF,
        stokes=GaussianPulse(amp_s, 0.0, tau),
        driving=TwoPartPulse(amp_d, -tau0, 0.0, tau),
        stokes_phase=phi,
    )
