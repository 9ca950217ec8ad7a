import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospin import pulses, scenarios


class TestGaussian:
    def test_peak(self):
        assert pulses.GaussianPulse(0.5, 0.0, 100.0)(0.0) == pytest.approx(0.5)

    def test_one_width_from_peak(self):
        assert pulses.GaussianPulse(0.5, 0.0, 100.0)(100.0) == pytest.approx(0.5 / math.e)

    def test_shifted_peak(self):
        assert pulses.GaussianPulse(0.5, -150.0, 100.0)(-150.0) == pytest.approx(0.5)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            pulses.GaussianPulse(0.5, 0.0, 0.0)

    @settings(deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(0, 10), st.floats(-1e3, 1e3),
           st.floats(1e-2, 1e3))
    def test_non_negative(self, t, amp, center, width):
        assert pulses.GaussianPulse(amp, center, width)(t) >= 0.0

    def test_tail_below_threshold(self):
        # value at 8 widths from the peak is < 1e-27 of the amplitude
        p = pulses.GaussianPulse(0.5, 0.0, 100.0)
        assert p(800.0) < 1e-27 * 0.5
        assert p(-800.0) < 1e-27 * 0.5


@pytest.mark.parametrize("pulse", [
    pulses.GaussianPulse(0.5, 30.0, 100.0),
    pulses.TwoPartPulse(0.4, -650.0, 0.0, 100.0),
])
def test_derivative_matches_central_difference(pulse):
    # O(h^2) convergence: halving h shrinks the defect by about 4
    for t in (-120.0, 0.0, 55.0, 300.0):
        exact = pulse.derivative(t)
        errs = []
        for h in (1e-2, 5e-3):
            fd = (pulse(t + h) - pulse(t - h)) / (2 * h)
            errs.append(abs(fd - exact))
        if errs[0] > 1e-13:
            assert errs[1] < errs[0] / 3.0


class TestYPulseSet:
    def test_centers_and_peaks(self):
        ps = pulses.make_y_pulseset(0.4, 0.5, 0.6, 150.0, 100.0)
        assert ps.driving(-150.0) == pytest.approx(0.6)   # driving early
        assert ps.pump(0.0) == pytest.approx(0.4)         # pump centered
        assert ps.stokes(150.0) == pytest.approx(0.5)     # Stokes late
        assert ps.stokes_phase == 0.0

    def test_adiabaticity_product(self):
        # reference operating point: amplitude * width = 50
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert ps.pump(0.0) * ps.pump.width == pytest.approx(50.0)

    def test_return_set_swaps_order(self):
        # a negative delay runs the sweep backwards: Stokes first, driving last
        ps = pulses.make_y_pulseset(0.0, 0.5, 0.5, -70.0, 100.0)
        assert ps.stokes(-70.0) == pytest.approx(0.5)     # Stokes early
        assert ps.driving(70.0) == pytest.approx(0.5)     # driving late
        assert ps.pump(12.3) == 0.0

    def test_bad_width(self):
        with pytest.raises(ValueError):
            pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, -1.0)


class TestZPulseSet:
    def test_zero_delay_merges_parts(self):
        ps = pulses.make_z_pulseset(0.5, 0.3, 0.0, 100.0, 0.0)
        for t in (-50.0, 0.0, 120.0):
            assert ps.driving(t) == pytest.approx(2 * 0.3 * math.exp(-(t / 100.0) ** 2))

    def test_far_separated_parts(self):
        ps = pulses.make_z_pulseset(0.5, 0.7, 650.0, 100.0, 0.0)
        assert ps.driving(0.0) == pytest.approx(0.7 * (1 + math.exp(-42.25)))

    def test_ratio_freezes(self):
        # Stokes/driving -> amp_s/amp_d; checked at t = 10 tau within 1e-6
        ps = pulses.make_z_pulseset(0.5, 0.3, 650.0, 100.0, 0.0)
        ratio = ps.stokes(1000.0) / ps.driving(1000.0)
        assert ratio == pytest.approx(0.5 / 0.3, rel=1e-6)

    def test_phase_recorded(self):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.77)
        assert ps.stokes_phase == pytest.approx(0.77)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            pulses.make_z_pulseset(0.5, 0.5, 650.0, 0.0, 0.0)


def test_pulseset_validation():
    with pytest.raises(ValueError):
        pulses.GaussianPulse(-0.1, 0.0, 10.0)


def _x_lower_set():
    run = scenarios.default_gate_run("x_composite", pump_amp=0.3)
    return scenarios._plan("x_composite", run).segments[-1][0]


# each family's window from its envelopes, pinned to the spans written out
# by hand before: tau = 100, delays tau0 = 150 (y), -70 (return), 650 (z)
# and 100 (x), and validate's short set at margin 4
@pytest.mark.parametrize("pulseset,margin,expected", [
    (pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0), 8.0, (-950.0, 950.0)),
    (pulses.make_y_pulseset(0.0, 0.5, 0.5, -70.0, 100.0), 8.0, (-870.0, 870.0)),
    (pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.3), 8.0, (-1450.0, 800.0)),
    (_x_lower_set(), 8.0, (-900.0, 900.0)),
    (pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0), 4.0, (-450.0, 450.0)),
], ids=["y", "y_return", "z", "x_lower", "validate_short"])
def test_window_covers_support(pulseset, margin, expected):
    lo, hi = pulseset.window(margin=margin)
    assert (lo, hi) == expected
    # every envelope has decayed to exp(-margin^2) of its peak at both edges
    for env in (pulseset.pump, pulseset.stokes, pulseset.driving):
        for edge in (lo, hi):
            assert env(edge) <= env.amplitude * math.exp(-margin ** 2) * (1.0 + 1e-9)


def test_window_needs_a_gaussian():
    with pytest.raises(ValueError, match="no window"):
        pulses.PulseSet(pump=pulses.ConstantPulse(0.1), stokes=pulses.OFF,
                        driving=pulses.OFF).window()
