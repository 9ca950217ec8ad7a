import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospin import cli, darkspace, holonomy, pulses
from holospin.qcore import dense_expm
from oracles import (path_ordered_exponential, predicted_final_state_z, sin_phi_y, sin_phi_z,
                     theta_rate)

# Frozen expected values, cross-checked below against a dense trapezoid
# integration that is independent of the adaptive quadrature.
BETA_AT_1P5 = 1.5165073807227245
GAMMA_F_AT_6P5 = 0.7778434166171311


def _trapezoid_angle_y(pulseset, n=400_001):
    lo, hi = pulseset.window()
    ts = np.linspace(lo, hi, n)
    vals = [sin_phi_y(pulseset, t) * theta_rate(pulseset, t)
            for t in ts]
    return np.trapezoid(vals, ts)


def _trapezoid_phase_z(pulseset, delta, n=400_001):
    # the symmetric hull of the window, as the quadrature takes it
    lo, hi = pulseset.window()
    half = max(-lo, hi)
    ts = np.linspace(-half, half, n)
    vals = [sin_phi_z(pulseset, t, delta) * theta_rate(pulseset, t)
            for t in ts]
    return np.trapezoid(vals, ts)


# the two angles in the form cli.scale_shift takes them
def _angle_y(pulseset, _):
    return holonomy.geometric_angle_y(pulseset).angle


def _phase_z(pulseset, params):
    return holonomy.geometric_phase_z(pulseset, params).angle


class TestGeometricAngleY:
    def test_zero_delay_gives_zero(self):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 0.0, 100.0)
        assert holonomy.geometric_angle_y(ps).angle == 0.0

    def test_reference_delay_frozen_value(self):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        res = holonomy.geometric_angle_y(ps)
        assert res.angle == pytest.approx(BETA_AT_1P5, abs=1e-8)
        assert res.quad_error < 1e-6

    def test_frozen_value_against_trapezoid_oracle(self):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert _trapezoid_angle_y(ps) == pytest.approx(BETA_AT_1P5, abs=1e-9)

    def test_plateau(self):
        # quarter-turn plateau within 1e-3 rad from delay ratio 3 onward
        for ratio in (3.0, 5.0):
            ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, ratio * 100.0, 100.0)
            assert abs(holonomy.geometric_angle_y(ps).angle - math.pi / 2) < 1e-3

    def test_amplitude_scale_invariance(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert cli.scale_shift(_angle_y, ps, params, (0.2, 3.7)) < 1e-9

    def test_starved_quadrature_raises(self, monkeypatch):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        monkeypatch.setattr(holonomy, "_QUAD_LIMIT", 2)
        with pytest.raises(ValueError, match="quadrature"):
            holonomy.geometric_angle_y(ps)


class TestGeometricPhaseZ:
    def test_zero_delay_gives_zero(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 0.0, 100.0, 0.0)
        assert holonomy.geometric_phase_z(ps, params).angle == 0.0

    def test_reference_delay_frozen_value(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        res = holonomy.geometric_phase_z(ps, params)
        assert res.angle == pytest.approx(GAMMA_F_AT_6P5, abs=1e-8)

    def test_frozen_value_against_trapezoid_oracle(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        assert _trapezoid_phase_z(ps, params.delta) == pytest.approx(
            GAMMA_F_AT_6P5, abs=1e-9)

    def test_reference_delay_within_percent_of_plateau(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        angle = holonomy.geometric_phase_z(ps, params).angle
        assert abs(angle - math.pi / 4) <= 0.01 * (math.pi / 4)

    def test_plateau_at_large_delay(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 1000.0, 100.0, 0.0)
        assert holonomy.geometric_phase_z(ps, params).angle == pytest.approx(
            math.pi / 4, abs=1e-6)

    def test_integrand_equals_line_integral_form(self, params, rng):
        # the same phase written as a field-space line integral:
        # (delta/2)/(Os^2+Od^2) * (Os dOd - Od dOs)/sqrt(2(Os^2+Od^2)+(delta/2)^2)
        # equals -sin(phi) theta'(t) pointwise
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        rate = darkspace.angle_rate_z(ps, params.delta)
        for _ in range(50):
            t = rng.uniform(-1200.0, 700.0)
            om_s, om_d = ps.stokes(t), ps.driving(t)
            ds, dd = ps.stokes.derivative(t), ps.driving.derivative(t)
            half = params.delta / 2.0
            line = (half / (om_s ** 2 + om_d ** 2)
                    * (om_s * dd - om_d * ds)
                    / math.sqrt(2 * (om_s ** 2 + om_d ** 2) + half ** 2))
            mixing = -(sin_phi_z(ps, t, params.delta)
                       * theta_rate(ps, t))
            assert line == pytest.approx(mixing, abs=1e-15, rel=1e-9)
            assert line == pytest.approx(-rate(t), abs=1e-15, rel=1e-9)

    def test_joint_scale_invariance(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        assert cli.scale_shift(_phase_z, ps, params, (0.3, 4.2)) < 1e-9


@pytest.mark.parametrize("ratio", [1.5, 6.5])
def test_angles_invariant_under_time_rescaling(ratio, params):
    # the sweeps rely on this: at a fixed delay ratio, the pulse width drops out
    def angles(tau):
        y = holonomy.geometric_angle_y(
            pulses.make_y_pulseset(0.5, 0.5, 0.5, ratio * tau, tau)).angle
        z = holonomy.geometric_phase_z(
            pulses.make_z_pulseset(0.5, 0.5, ratio * tau, tau, 0.0), params).angle
        return y, z

    base_y, base_z = angles(100.0)
    for tau in (60.0, 1000.0):
        y, z = angles(tau)
        assert abs(y - base_y) < 1e-12
        assert abs(z - base_z) < 1e-12


class TestPathOrderedExponential:
    def test_single_segment(self):
        a = np.array([[0.0, -0.3], [0.3, 0.0]])
        u = path_ordered_exponential([(a, 0.5)])
        np.testing.assert_allclose(u, dense_expm(0.5 * a), atol=1e-14)

    def test_commuting_segments_sum(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        u = path_ordered_exponential([(0.2 * a, 0.5), (0.6 * a, 0.25), (a, 0.1)])
        total = 0.2 * 0.5 + 0.6 * 0.25 + 0.1
        np.testing.assert_allclose(u, holonomy.predicted_ry(total), atol=1e-12)

    def test_y_protocol_samples_reproduce_gate(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        beta = holonomy.geometric_angle_y(ps).angle
        lo, hi = ps.window()
        edges = np.linspace(lo, hi, 2001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = edges[1] - edges[0]
        samples = [(darkspace.connection_y(math.asin(sin_phi_y(ps, t)))
                    * theta_rate(ps, t), dt) for t in mids]
        u = path_ordered_exponential(samples)
        assert np.max(np.abs(u - holonomy.predicted_ry(beta))) < 1e-6

    def test_reversed_path_inverts(self, rng):
        samples = []
        for _ in range(40):
            phi = rng.uniform(0, math.pi / 2)
            samples.append((darkspace.connection_y(phi) * rng.uniform(-1, 1),
                            rng.uniform(0.01, 0.1)))
        forward = path_ordered_exponential(samples)
        backward = path_ordered_exponential(
            [(-a, s) for a, s in reversed(samples)])
        np.testing.assert_allclose(backward @ forward, np.eye(2), atol=1e-10)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            path_ordered_exponential([(np.zeros((2, 2)), 0.0)])


class TestPredictedGates:
    def test_ry_limits(self):
        np.testing.assert_allclose(holonomy.predicted_ry(0.0), np.eye(2))
        half = holonomy.predicted_ry(math.pi / 2)
        np.testing.assert_allclose(half, [[0, -1], [1, 0]], atol=1e-15)

    @settings(deadline=None)
    @given(st.floats(-10, 10, allow_nan=False))
    def test_ry_unitary(self, beta):
        u = holonomy.predicted_ry(beta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_rz_values(self):
        np.testing.assert_allclose(holonomy.predicted_rz(0.0), np.eye(2))
        np.testing.assert_allclose(holonomy.predicted_rz(math.pi),
                                   np.diag([1, -1]), atol=1e-15)
        np.testing.assert_allclose(holonomy.predicted_rz(math.pi / 2),
                                   np.diag([1, 1j]), atol=1e-15)

    def test_final_state_z_quarter_phase(self):
        psi = predicted_final_state_z(math.pi / 4, 0.9)
        expected = np.zeros(5, dtype=complex)
        expected[1] = np.exp(0.9j)
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_final_state_z_zero_phase_angle(self):
        psi = predicted_final_state_z(0.0, 0.3)
        assert psi[1] == pytest.approx(np.exp(0.3j) / np.sqrt(2))
        assert psi[2] == pytest.approx(-1 / np.sqrt(2))

    @settings(deadline=None)
    @given(st.floats(-3, 3), st.floats(-math.pi, math.pi))
    def test_final_state_z_normalized(self, gamma_f, phase):
        psi = predicted_final_state_z(gamma_f, phase)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
