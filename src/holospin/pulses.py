"""Laser-field envelopes and named pulse sets.

Units: time in picoseconds, envelope values are half Rabi frequencies in
rad/ps (the envelopes are exactly the coupling strengths entering the
Hamiltonians, with no extra factor of two anywhere).

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


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian envelope amp * exp(-(t-center)^2/width^2)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("pulse width must be positive")
        if self.amplitude < 0.0:
            raise ValueError("pulse amplitude must be non-negative")

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
        if self.width <= 0.0:
            raise ValueError("pulse width must be positive")
        if self.amplitude < 0.0:
            raise ValueError("pulse amplitude must be non-negative")

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
        if self.amplitude < 0.0:
            raise ValueError("pulse amplitude must be non-negative")

    def __call__(self, t: float) -> float:
        return self.amplitude

    def derivative(self, t: float) -> float:
        return 0.0


OFF = ConstantPulse(0.0)


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
        stokes_phase=0.0,
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
