import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospin import pulses, scenarios


class TestGaussian:
    def test_peak(self):
        assert pulses.Envelope(0.5, (0.0,), 100.0)(0.0) == pytest.approx(0.5)

    def test_one_width_from_peak(self):
        assert pulses.Envelope(0.5, (0.0,), 100.0)(100.0) == pytest.approx(0.5 / math.e)

    def test_shifted_peak(self):
        assert pulses.Envelope(0.5, (-150.0,), 100.0)(-150.0) == pytest.approx(0.5)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            pulses.Envelope(0.5, (0.0,), 0.0)

    @settings(deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(0, 10), st.floats(-1e3, 1e3),
           st.floats(1e-2, 1e3))
    def test_non_negative(self, t, amp, center, width):
        assert pulses.Envelope(amp, (center,), width)(t) >= 0.0

    def test_tail_below_threshold(self):
        # value at 8 widths from the peak is < 1e-27 of the amplitude
        p = pulses.Envelope(0.5, (0.0,), 100.0)
        assert p(800.0) < 1e-27 * 0.5
        assert p(-800.0) < 1e-27 * 0.5


@pytest.mark.parametrize("pulse", [
    pulses.Envelope(0.5, (30.0,), 100.0),
    pulses.Envelope(0.4, (-650.0, 0.0), 100.0),
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


def _with_each_number(fields, value):
    """The fields with each number in turn, each center among them, set to
    value."""
    amplitude, *rest = fields
    yield (value, *rest)
    if rest:
        centers, width = rest
        for i in range(len(centers)):
            yield amplitude, centers[:i] + (value,) + centers[i + 1:], width
        yield amplitude, centers, value


@pytest.mark.parametrize("fields", [(0.5, (30.0,), 100.0), (0.5, (-650.0, 0.0), 100.0), (0.3,)],
                         ids=["one_center", "two_centers", "constant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_field_must_be_finite(fields, value):
    # each number in turn: a NaN passes every comparison-based check, and a
    # solve under a NaN envelope never takes a step
    for bad in _with_each_number(fields, value):
        with pytest.raises(ValueError, match="finite"):
            pulses.Envelope(*bad)


class TestEnvelopeChecks:
    @pytest.mark.parametrize("centers", [0.0, [0.0], (0.0, "1"), (None,)])
    def test_centers_must_be_a_tuple_of_numbers(self, centers):
        with pytest.raises(ValueError, match="tuple of finite floats"):
            pulses.Envelope(0.5, centers, 100.0)

    def test_a_constant_envelope_has_an_infinite_width(self):
        # so every envelope with a finite width has a center to bound its
        # window, and a solve under constant drives stays uncapped
        with pytest.raises(ValueError, match="infinite width"):
            pulses.Envelope(0.5, (), 100.0)
        flat = pulses.Envelope(0.5)
        assert (flat.centers, flat.width, flat(-1e9), flat.derivative(3.0)) == ((), math.inf,
                                                                                0.5, 0.0)


def _one_center(a, c, w, t):
    # reference formulas: one Gaussian's value and slope, and the value of a
    # sum of two
    x = (t - c) / w
    return a * math.exp(-x * x), -2.0 * x / w * a * math.exp(-x * x)


def _two_centers(a, c1, c2, w, t):
    xe, xl = (t - c1) / w, (t - c2) / w
    return a * (math.exp(-xe * xe) + math.exp(-xl * xl))


# for envelopes centered at 30 (one center) and at -650 and 0 (two), width
# 100: the peaks, the two-center midpoint where the slope's terms cancel,
# one width off, the window edges, subnormal tails (27.2 widths out) and
# tails where every component underflows to 0 (40 widths out), then a grid
TIMES = ([30.0, -650.0, 0.0, -325.0, 130.0, -750.0]
         + [t for widths in (8.0, 27.2, 40.0) for t in (-650.0 - 100.0 * widths,
                                                          30.0 + 100.0 * widths)]
         + np.linspace(-1500.0, 900.0, 241).tolist())


class TestEnvelopeFormulas:
    def test_values_match_the_written_out_formulas_bit_for_bit(self):
        one = pulses.Envelope(0.4, (30.0,), 100.0)
        two = pulses.Envelope(0.5, (-650.0, 0.0), 100.0)
        for t in TIMES:
            assert (one(t), one.derivative(t)) == _one_center(0.4, 30.0, 100.0, t), t
            assert two(t) == _two_centers(0.5, -650.0, 0.0, 100.0, t), t
        assert one(4030.0) == two(-4650.0) == 0.0
        assert 0.0 < one(2750.0) < np.finfo(float).tiny

    @settings(deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(0, 10), st.floats(-1e3, 1e3),
           st.floats(-1e3, 1e3), st.floats(1e-2, 1e3))
    def test_any_values_match_bit_for_bit(self, t, amp, early, late, width):
        assert pulses.Envelope(amp, (early,), width)(t) == _one_center(amp, early, width, t)[0]
        assert (pulses.Envelope(amp, (early, late), width)(t)
                == _two_centers(amp, early, late, width, t))

    def test_array_values_match_the_scalar_ones(self):
        # np.exp over an array against math.exp per time: within 4 ulps of
        # the value plus the smallest normal float for subnormal tails, the
        # bound of values_and_slopes; a constant envelope fills the array
        times = np.array(TIMES)
        bound, tiny = 4.0 * np.finfo(float).eps, np.finfo(float).tiny
        for envelope in (pulses.Envelope(0.4, (30.0,), 100.0),
                         pulses.Envelope(0.5, (-650.0, 0.0), 100.0), pulses.Envelope(0.3)):
            values = envelope(times)
            assert values.shape == times.shape
            for t, value in zip(TIMES, values.tolist()):
                assert abs(value - envelope(t)) <= bound * envelope(t) + tiny, t
        assert pulses.Envelope(0.3)(times).tolist() == [0.3] * len(TIMES)


class TestComponents:
    ENVELOPES = (pulses.Envelope(0.4, (30.0,), 100.0),
                 pulses.Envelope(0.5, (-650.0, 0.0), 100.0),
                 pulses.Envelope(0.3))

    def test_one_entry_per_center_in_order(self):
        index, amplitude, center, width = pulses.components(self.ENVELOPES)
        assert index.tolist() == [0, 1, 1]
        assert amplitude.tolist() == [0.4, 0.5, 0.5]
        assert center.tolist() == [30.0, -650.0, 0.0]
        assert width.tolist() == [100.0, 100.0, 100.0]
        assert all(column.flags.c_contiguous for column in (index, amplitude, center, width))

    def test_values_and_slopes_match_the_envelope_methods(self):
        values, slopes = pulses.values_and_slopes(self.ENVELOPES, np.array(TIMES))
        assert values.shape == slopes.shape == (3, len(TIMES))
        # rounding level: numpy's exp and math.exp differ by an ulp on a few
        # percent of arguments; each bound is 4 ulps of the sum of the
        # components' moduli, plus the smallest normal float for subnormal
        # tails
        bound = 4.0 * np.finfo(float).eps
        tiny = np.finfo(float).tiny
        for k, envelope in enumerate(self.ENVELOPES):
            parts = [pulses.Envelope(envelope.amplitude, (c,), envelope.width)
                     for c in envelope.centers]
            for t, value, slope in zip(TIMES, values[k].tolist(), slopes[k].tolist()):
                assert abs(value - envelope(t)) <= bound * envelope(t) + tiny, (k, t)
                modulus = sum(abs(part.derivative(t)) for part in parts)
                assert abs(slope - envelope.derivative(t)) <= bound * modulus + tiny, (k, t)
        # the far tails underflow to exactly the constant envelope's values
        assert values[:2, 10:12].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert values[2].tolist() == [0.3] * len(TIMES)
        assert slopes[2].tolist() == [0.0] * len(TIMES)

    def test_other_envelope_types_are_rejected_by_name(self):
        class Ramp:
            amplitude, centers, width = 1.0, (0.0,), 10.0

        with pytest.raises(ValueError, match="not Ramp"):
            pulses.components((pulses.OFF, Ramp()))
        with pytest.raises(ValueError, match="not Ramp"):
            pulses.values_and_slopes((Ramp(),), np.zeros(3))


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
        pulses.Envelope(-0.1, (0.0,), 10.0)


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
        pulses.PulseSet(pump=pulses.Envelope(0.1), stokes=pulses.OFF,
                        driving=pulses.OFF).window()
