import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospin import cli, darkspace, model, pulses
from holospin.qcore import DIM, IDX_E1, IDX_E2

angles = st.floats(0.0, math.pi / 2, allow_nan=False)
inner_angles = st.floats(0.05, math.pi / 2 - 0.05)


class TestMixingAngles:
    def test_theta_values(self):
        assert darkspace.mixing_theta(0.3, 0.3) == pytest.approx(math.pi / 4)
        assert darkspace.mixing_theta(0.0, 0.5) == 0.0
        assert darkspace.mixing_theta(0.5, 0.0) == pytest.approx(math.pi / 2)

    def test_theta_needs_limit_when_dark(self):
        with pytest.raises(ValueError):
            darkspace.mixing_theta(0.0, 0.0)
        assert darkspace.mixing_theta(0.0, 0.0, limit=0.3) == 0.3

    def test_phi_y_values(self):
        assert darkspace.mixing_phi_y(0.0, 0.2, 0.3) == 0.0
        # 3-4-5 construction: sqrt(0.09 + 0.16) = 0.5
        assert darkspace.mixing_phi_y(0.5, 0.3, 0.4) == pytest.approx(math.pi / 4)
        assert darkspace.mixing_phi_y(0.5, 0.0, 0.0) == pytest.approx(math.pi / 2)
        # all fields gone: the y protocol's tail limit
        assert darkspace.mixing_phi_y(0.0, 0.0, 0.0) == 0.0

    def test_phi_z_values(self):
        assert darkspace.mixing_phi_z(1e-3, 0.0, 0.0) == pytest.approx(math.pi / 2)
        assert darkspace.mixing_phi_z(0.0, 0.3, 0.1) == 0.0
        # tan(phi) = 1 when delta/2 = sqrt(2) * hypot(fields)
        f = 0.2
        delta = 2 * math.sqrt(2) * math.hypot(f, f)
        assert darkspace.mixing_phi_z(delta, f, f) == pytest.approx(math.pi / 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            darkspace.mixing_theta(-0.1, 0.5)
        with pytest.raises(ValueError):
            darkspace.mixing_phi_z(-1.0, 0.1, 0.1)


class TestDarkStatesY:
    def test_bare_limit(self):
        pair = darkspace.dark_states_y(0.0, 0.0)
        np.testing.assert_allclose(pair[:, 0], [0, 1, 0, 0, 0])
        np.testing.assert_allclose(pair[:, 1], [1, 0, 0, 0, 0])

    def test_transferred_limit(self):
        pair = darkspace.dark_states_y(math.pi / 2, 0.0)
        np.testing.assert_allclose(pair[:, 0], [0, 0, -1, 0, 0], atol=1e-15)

    @settings(deadline=None)
    @given(angles, angles)
    def test_orthonormal_no_electron_support(self, theta, phi):
        pair = darkspace.dark_states_y(theta, phi)
        assert pair.shape == (DIM, 2)
        assert np.max(np.abs(pair.conj().T @ pair - np.eye(2))) < 1e-12
        assert np.all(pair[[IDX_E1, IDX_E2]] == 0)


class TestDarkStatesZ:
    def test_field_free_limit(self):
        pair = darkspace.dark_states_z(0.0, math.pi / 2, 0.4)
        np.testing.assert_allclose(pair[:, 0], [0, np.exp(0.4j), 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(pair[:, 1], [0, 0, 1, 0, 0], atol=1e-15)

    def test_equal_mixing(self):
        pair = darkspace.dark_states_z(math.pi / 4, math.pi / 2, 0.0)
        np.testing.assert_allclose(pair[:, 1], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0],
                                   atol=1e-15)

    @settings(deadline=None)
    @given(angles, angles, st.floats(-math.pi, math.pi))
    def test_orthonormal(self, theta, phi, phase):
        pair = darkspace.dark_states_z(theta, phi, phase)
        assert pair.shape == (DIM, 2)
        assert np.max(np.abs(pair.conj().T @ pair - np.eye(2))) < 1e-12


class TestConnection:
    def test_zero_at_zero_pump_angle(self):
        assert np.all(darkspace.connection_y(0.0) == 0)

    def test_full_at_right_angle(self):
        a = darkspace.connection_y(math.pi / 2)
        np.testing.assert_allclose(a, [[0, -1], [1, 0]], atol=1e-15)

    def test_constant_basis_gives_zero(self):
        basis = lambda theta: darkspace.dark_states_y(0.3, 0.2)
        a = darkspace.connection_numeric(basis, 0.3, 1e-4)
        assert np.max(np.abs(a)) < 1e-14

    def test_numeric_matches_analytic(self, rng):
        assert cli.connection_deviation(rng, 25) < 1e-8

    def test_second_order_convergence(self):
        phi = 0.7
        basis = lambda th: darkspace.dark_states_y(th, phi)
        exact = darkspace.connection_y(phi)
        err_h = np.max(np.abs(darkspace.connection_numeric(basis, 0.5, 2e-2) - exact))
        err_h2 = np.max(np.abs(darkspace.connection_numeric(basis, 0.5, 1e-2) - exact))
        assert err_h2 == pytest.approx(err_h / 4.0, rel=0.1)

    @pytest.mark.parametrize("theta,phi,phase", [(0.6, 0.9, 0.3), (0.2, 1.3, -2.0),
                                                 (1.1, 0.4, 3.0)])
    def test_z_family_is_minus_the_y_connection(self, theta, phi, phase):
        # the z pair's d2 enters with the opposite sign, whatever the Stokes phase
        num = darkspace.connection_numeric(
            lambda th: darkspace.dark_states_z(th, phi, phase), theta, 1e-5)
        np.testing.assert_allclose(num, -darkspace.connection_y(phi), rtol=0, atol=1e-6)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            darkspace.connection_numeric(
                lambda th: darkspace.dark_states_y(th, 0.1), 0.3, 0.0)


class TestDarknessResidual:
    def test_y_protocol_nullity(self, params, rng):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        for _ in range(50):
            t = rng.uniform(*ps.window())
            h = model.build_h_y(t, ps, params)
            pair = darkspace.dark_states_y(
                darkspace.theta_track(ps, t),
                darkspace.mixing_phi_y(ps.pump(t), ps.stokes(t), ps.driving(t)))
            r1, r2 = darkspace.darkness_residual(h, pair)
            bound = 1e-10 * (1.0 + float(np.max(np.abs(h))))
            assert r1 < bound and r2 < bound

    def test_z_protocol_nullity(self, params, rng):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.8)
        for _ in range(50):
            t = rng.uniform(-1450.0, 800.0)
            h = model.build_h_z(t, ps, params)
            pair = darkspace.dark_states_z(
                darkspace.theta_track(ps, t),
                darkspace.mixing_phi_z(params.delta, ps.stokes(t), ps.driving(t)),
                ps.stokes_phase)
            r1, r2 = darkspace.darkness_residual(h, pair)
            bound = 1e-10 * (1.0 + float(np.max(np.abs(h))))
            assert r1 < bound and r2 < bound

    def test_wrong_tuning_negative_control(self, params):
        # resonance with |e1> instead of the midpoint: d2 is no longer dark
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        t = -325.0
        h = np.zeros((DIM, DIM), dtype=complex)
        h[4, 4] = -params.delta  # detuning moved entirely onto |e2>
        om_s, om_d = ps.stokes(t), ps.driving(t)
        for e in (3, 4):
            h[e, 1] = -om_s
            h[e, 2] = -om_d
            h[1, e] = -om_s
            h[2, e] = -om_d
        pair = darkspace.dark_states_z(
            darkspace.theta_track(ps, t),
            darkspace.mixing_phi_z(params.delta, om_s, om_d), 0.0)
        r1, r2 = darkspace.darkness_residual(h, pair)
        assert r2 > 1e-3 * float(np.max(np.abs(h)))


class TestAngleTracks:
    def test_theta_limits_families(self):
        y_fwd = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert darkspace.theta_limits(y_fwd) == (0.0, pytest.approx(math.pi / 2))
        y_ret = pulses.make_y_pulseset(0.0, 0.5, 0.5, -70.0, 100.0)
        assert darkspace.theta_limits(y_ret) == (pytest.approx(math.pi / 2), 0.0)
        z = pulses.make_z_pulseset(0.5, 0.25, 650.0, 100.0, 0.0)
        early, late = darkspace.theta_limits(z)
        assert early == 0.0
        assert late == pytest.approx(math.atan2(0.5, 0.25))
        # tau0 = 0: both driving centers sit on the Stokes one in both tails
        merged = pulses.make_z_pulseset(0.5, 0.25, 0.0, 100.0, 0.0)
        tie = math.atan2(0.5, 2 * 0.25)
        assert darkspace.theta_limits(merged) == (tie, tie)

    def test_theta_rate_matches_closed_form_y(self):
        # equal-amplitude delayed Gaussians: theta(t) = atan(exp(4 tau0 t / tau^2))
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        k = 4 * 150.0 / 100.0 ** 2
        for t in (-200.0, -50.0, 0.0, 30.0, 180.0):
            expected = k / (2.0 * math.cosh(k * t))
            assert darkspace.theta_rate(ps, t) == pytest.approx(expected, rel=1e-12)

    def test_theta_rate_matches_closed_form_z(self):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        tau0, tau = 650.0, 100.0
        for t in (-500.0, -325.0, -200.0, 0.0):
            v = math.exp(-(2 * tau0 * t + tau0 ** 2) / tau ** 2)
            expected = (2 * tau0 / tau ** 2) * v / ((1 + v) ** 2 + 1.0)
            assert darkspace.theta_rate(ps, t) == pytest.approx(expected, rel=1e-12)

    def test_sin_phi_tracks(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert darkspace.sin_phi_y(ps, 0.0) == pytest.approx(
            math.sin(darkspace.mixing_phi_y(ps.pump(0), ps.stokes(0), ps.driving(0))))
        assert darkspace.sin_phi_y(ps, 1e6) == 0.0  # dead fields -> limit 0
        z = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        assert darkspace.sin_phi_z(z, 1e6, params.delta) == 1.0
        assert darkspace.sin_phi_z(z, 0.0, params.delta) < 1e-3

    def test_rate_zero_outside_support(self):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert darkspace.theta_rate(ps, 1e7) == 0.0


class TestAdiabaticityRatio:
    def test_y_reference_protocol_is_adiabatic(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        times = np.linspace(-650.0, 650.0, 400)  # active window
        assert darkspace.adiabaticity_ratio(ps, params, times, "y") < 0.1

    def test_z_reference_delay_violates_condition(self, params):
        # at the plateau delay the crossover happens where the fields are
        # ~1e-5 of peak and the label rotation outruns the splitting
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        times = np.linspace(-1050.0, 400.0, 400)
        assert darkspace.adiabaticity_ratio(ps, params, times, "z") > 1.0

    def test_z_stretched_width_restores_condition(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 6.5 * 3e4, 3e4, 0.0)
        times = np.linspace(-10.5 * 3e4, 4.0 * 3e4, 400)
        assert darkspace.adiabaticity_ratio(ps, params, times, "z") < 0.1

    def test_unknown_config(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        with pytest.raises(ValueError):
            darkspace.adiabaticity_ratio(ps, params, [0.0], "w")
