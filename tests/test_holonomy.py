import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

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
    lo, hi = pulseset.window()
    ts = np.linspace(lo, hi, n)
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
        # equals -sin(phi) theta'(t) pointwise, and the theta-domain rule's
        # integrand sin(phi) d(theta) is that form times dt: 1 / sqrt(1 +
        # 8 Os^2 / (delta^2 sin^2 theta)) at tan(theta) = expit(2 v rho +
        # rho^2), v = t / tau, times d(theta)/dt by central differences
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        rho, h = 6.5, 1e-3

        def theta_of(t):
            return math.atan(expit(2.0 * (t / 100.0) * rho + rho * rho))

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
            theta = theta_of(t)
            sin_phi = 1.0 / math.sqrt(1.0 + 8.0 * om_s ** 2 / (params.delta * math.sin(theta)) ** 2)
            slope = (theta_of(t + h) - theta_of(t - h)) / (2.0 * h)
            assert line == pytest.approx(-sin_phi * slope, abs=1e-15, rel=1e-6)

    def test_joint_scale_invariance(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        assert cli.scale_shift(_phase_z, ps, params, (0.3, 4.2)) < 1e-9


def _z_row_sets(ratios):
    return [pulses.make_z_pulseset(0.5, 0.5, r * 100.0, 100.0, 0.0) for r in ratios]


class TestPhaseRuleZ:
    """The theta-domain rule of the z phase over many sets at once."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 512])
    def test_nodes_are_numpys_gauss_legendre(self, n):
        x, w = holonomy._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, ref_w, rtol=1e-9, atol=1e-15)
        # exact through degree 2n - 1
        assert w @ x ** (2 * n - 2) == pytest.approx(2.0 / (2 * n - 1), rel=1e-13)

    def test_estimate_bounds_the_error_against_a_finer_rule(self, params, monkeypatch):
        # each row's estimate |I_n - I_2n| against its distance to the rule at
        # twice the nodes (I_4n), over ratios in (0, 0.05] and up to 40.  The
        # floor: no node of either rule lies closer to an end of the theta
        # range than about 3e-10 of its width, and at ratios near 3 sin(phi)
        # steps closer than that; against a 2048-node rule the estimate
        # falls short there by at most 4.1e-11
        ratios = np.concatenate([np.geomspace(1e-9, 0.05, 40), np.linspace(0.06, 12.0, 200),
                                 [16.79, 16.8, 25.0, 40.0]])
        sets = _z_row_sets(ratios)
        phases, errors = holonomy.phases_z(sets, params)
        monkeypatch.setattr(holonomy, "_Z_NODES", 2 * holonomy._Z_NODES)
        finer, _ = holonomy.phases_z(sets, params)
        assert np.all(np.abs(phases - finer) <= errors + 1e-10)
        assert np.all(errors < holonomy.QUAD_ERROR_CEILING)

    def test_seeded_grid_against_trapezoid(self, params):
        # every row of a 600-row grid on [0, 12], as the benchmark's sweeps
        # draw it, within max(1e-9, its estimate) of a t-domain trapezoid
        # over the window at 20,001 points
        ratios = np.sort(np.random.default_rng(301).uniform(0.0, 12.0, 600))
        sets = _z_row_sets(ratios)
        phases, errors = holonomy.phases_z(sets, params)
        assert np.all(errors < holonomy.QUAD_ERROR_CEILING)
        half = params.delta / 2.0
        for ps, phase, error in zip(sets, phases, errors):
            ts = np.linspace(*ps.window(), 20_001)
            om_s, om_d = ps.stokes(ts), ps.driving(ts)
            ds, dd = ps.stokes.derivative(ts), ps.driving.derivative(ts)
            g2 = om_s * om_s + om_d * om_d
            rate = np.divide(ds * om_d - om_s * dd, g2, out=np.zeros_like(g2), where=g2 > 0.0)
            trapezoid = np.trapezoid(half / np.sqrt(half * half + 2.0 * g2) * rate, ts)
            assert abs(phase - trapezoid) <= max(1e-9, error), ps

    def test_rows_do_not_depend_on_their_block(self, params):
        # three blocks of rows, each row bit for bit the set's own phase
        sets = _z_row_sets(np.linspace(0.0, 12.0, 150))
        phases, errors = holonomy.phases_z(sets, params)
        alone = [holonomy.geometric_phase_z(ps, params) for ps in sets]
        assert phases.tolist() == [r.angle for r in alone]
        assert errors.tolist() == [r.quad_error for r in alone]

    def test_rejects_other_layouts(self, params):
        z = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        for bad in (pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0),
                    replace(z, pump=pulses.Envelope(0.1, (0.0,), 100.0)),
                    replace(z, stokes=pulses.Envelope(0.5, (10.0,), 100.0)),
                    replace(z, stokes=pulses.Envelope(0.5, (0.0,), 90.0)),
                    pulses.make_z_pulseset(0.5, 0.5, -650.0, 100.0, 0.0)):
            with pytest.raises(ValueError, match="make_z_pulseset layout"):
                holonomy.geometric_phase_z(bad, params)


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
