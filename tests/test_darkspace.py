import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from holospin import cli, darkspace, holonomy, model, pulses
from holospin.qcore import DIM, IDX_E1, IDX_E2
from oracles import sin_phi_y, sin_phi_z, theta_rate

angles = st.floats(0.0, math.pi / 2, allow_nan=False)
inner_angles = st.floats(0.05, math.pi / 2 - 0.05)


class TestMixingAngles:
    def test_theta_values(self):
        assert darkspace.mixing_theta(0.3, 0.3) == pytest.approx(math.pi / 4)
        assert darkspace.mixing_theta(0.0, 0.5) == 0.0
        assert darkspace.mixing_theta(0.5, 0.0) == pytest.approx(math.pi / 2)

    def test_theta_is_zero_for_vanished_fields(self):
        # neither |1> nor |a> couples then, so every theta gives a dark frame
        assert darkspace.mixing_theta(0.0, 0.0) == 0.0

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
                darkspace.mixing_theta(ps.stokes(t), ps.driving(t)),
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
                darkspace.mixing_theta(ps.stokes(t), ps.driving(t)),
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
            darkspace.mixing_theta(ps.stokes(t), ps.driving(t)),
            darkspace.mixing_phi_z(params.delta, om_s, om_d), 0.0)
        r1, r2 = darkspace.darkness_residual(h, pair)
        assert r2 > 1e-3 * float(np.max(np.abs(h)))


class TestAngleTracks:
    def test_theta_rate_matches_closed_form_y(self):
        # equal-amplitude delayed Gaussians: theta(t) = atan(exp(4 tau0 t / tau^2))
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        k = 4 * 150.0 / 100.0 ** 2
        for t in (-200.0, -50.0, 0.0, 30.0, 180.0):
            expected = k / (2.0 * math.cosh(k * t))
            assert theta_rate(ps, t) == pytest.approx(expected, rel=1e-12)

    def test_theta_rate_matches_closed_form_z(self):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        tau0, tau = 650.0, 100.0
        for t in (-500.0, -325.0, -200.0, 0.0):
            v = math.exp(-(2 * tau0 * t + tau0 ** 2) / tau ** 2)
            expected = (2 * tau0 / tau ** 2) * v / ((1 + v) ** 2 + 1.0)
            assert theta_rate(ps, t) == pytest.approx(expected, rel=1e-12)

    def test_sin_phi_tracks(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert sin_phi_y(ps, 0.0) == pytest.approx(
            math.sin(darkspace.mixing_phi_y(ps.pump(0), ps.stokes(0), ps.driving(0))))
        assert sin_phi_y(ps, 1e6) == 0.0  # dead fields -> limit 0
        z = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        assert sin_phi_z(z, 1e6, params.delta) == 1.0
        assert sin_phi_z(z, 0.0, params.delta) < 1e-3

    def test_rate_zero_outside_support(self):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        assert theta_rate(ps, 1e7) == 0.0


def _y_sets():
    for ratio in (0.0, 1.5, 6.5, 19.2):
        for amps in ((0.5, 0.5, 0.5), (0.1, 1.85, 0.35), (3.0, 0.05, 1.2)):
            yield pulses.make_y_pulseset(*amps, ratio * 100.0, 100.0)
    # the pump-free return pass of a closed loop
    yield pulses.make_y_pulseset(0.0, 0.5, 0.5, -6.5 * 100.0, 100.0)


def _z_sets():
    for ratio in (0.0, 1.5, 6.5, 19.2):
        for amp_s, amp_d, scale in ((0.5, 0.5, 1.0), (0.1, 0.1, 0.2), (1.85, 0.35, 3.7)):
            yield pulses.make_z_pulseset(amp_s, amp_d, ratio * 100.0, 100.0, 0.7), scale


def _probe_times(pulseset):
    # the window, beyond it where every field underflows, and t = 0
    lo, hi = pulseset.window()
    return [*np.linspace(1.5 * lo, 1.5 * hi, 601), -1e6, 0.0, 1e6]


class TestAngleRates:
    """The flat y integrand equals sin(phi) * theta'(t) built from the
    envelope methods, bit for bit, and the closed forms of the z phase's
    theta-domain rule equal the envelope methods' values to rounding."""

    def test_y_closure_is_exact(self):
        for ps in _y_sets():
            rate = darkspace.angle_rate_y(ps)
            for t in _probe_times(ps):
                assert rate(t) == sin_phi_y(ps, t) * theta_rate(ps, t), (ps, t)

    def test_z_theta_form_is_exact(self, params):
        # over the window of each set, from the layout the rule reads:
        # tan(theta) = (a_s / a_d) expit(2 v rho + rho^2) with v = t / width
        # (the late center is at 0), and sin(phi) = 1 / sqrt(1 + e^ls) with
        # ls = ln(8 a_s^2 / delta^2) - 2 v^2 - 2 ln sin(theta)
        for ps, scale in _z_sets():
            delta = scale * params.delta
            a_s, a_d, rho, _, _ = holonomy._z_layout(ps)
            for t in np.linspace(*ps.window(), 601):
                v = t / ps.stokes.width
                theta = math.atan2(a_s * expit(2.0 * v * rho + rho * rho), a_d)
                assert theta == pytest.approx(darkspace.mixing_theta(ps.stokes(t), ps.driving(t)),
                                              rel=1e-12, abs=1e-15), (ps, t)
                ls = math.log(8.0 * (a_s / delta) ** 2) - 2.0 * v * v - 2.0 * math.log(math.sin(theta))
                assert 1.0 / math.sqrt(1.0 + math.exp(ls)) == pytest.approx(
                    sin_phi_z(ps, t, delta), rel=1e-12), (ps, t)

    def test_rejects_other_envelope_kinds(self, params):
        y = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        z = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        with pytest.raises(ValueError, match="make_z_pulseset layout"):
            holonomy.geometric_phase_z(y, params)
        # z's pump is off: no center
        with pytest.raises(ValueError, match="one-center envelopes here, not 0 centers"):
            darkspace.angle_rate_y(z)
        with pytest.raises(ValueError, match="not 2 centers"):
            darkspace.angle_rate_y(pulses.PulseSet(y.pump, y.stokes, z.driving))
        with pytest.raises(ValueError, match="not 0 centers"):
            darkspace.angle_rate_y(pulses.PulseSet(pulses.OFF, y.stokes, y.driving))


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


def _central_ratio(ps, params, t: float, config: str) -> float:
    """|mixing-angle rate| / bright splitting at t, the rates by central
    differences of the scalar mixing angles over a step of 1e-5 widths and
    the splitting 2 sqrt(2 (omega_p^2 + omega_s^2 + omega_d^2) + (delta/2)^2)."""
    def angles(u):
        om_p, om_s, om_d = ps.pump(u), ps.stokes(u), ps.driving(u)
        phi = (darkspace.mixing_phi_y(om_p, om_s, om_d) if config == "y"
               else darkspace.mixing_phi_z(params.delta, om_s, om_d))
        return darkspace.mixing_theta(om_s, om_d), phi

    h = 1e-5 * ps.stokes.width
    (theta_hi, phi_hi), (theta_lo, phi_lo) = angles(t + h), angles(t - h)
    rate = max(abs(theta_hi - theta_lo), abs(phi_hi - phi_lo)) / (2.0 * h)
    fields = ps.pump(t) ** 2 + ps.stokes(t) ** 2 + ps.driving(t) ** 2
    return rate / (2.0 * math.sqrt(2.0 * fields + (params.delta / 2.0) ** 2))


@pytest.mark.parametrize("ps, times, config", [
    (pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0), np.linspace(-650.0, 650.0, 400), "y"),
    (pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0), np.linspace(-1050.0, 400.0, 400), "z"),
    (pulses.make_z_pulseset(0.5, 0.5, 6.5 * 3e4, 3e4, 0.0),
     np.linspace(-10.5 * 3e4, 4.0 * 3e4, 400), "z"),
], ids=["y", "z", "z_stretched"])
def test_adiabaticity_ratio_matches_central_differences(ps, times, config, params):
    # the verdict tests' sets and windows, one time at a time; the central
    # differences' truncation, O(h^2), dominates: the worst relative gap
    # measured was 7.8e-9 (z; 5.8e-10 y) and fell 100x per decade of h, so
    # 5e-8 leaves a margin of 6
    for t in times.tolist():
        ratio = darkspace.adiabaticity_ratio(ps, params, [t], config)
        assert ratio == pytest.approx(_central_ratio(ps, params, t, config), rel=5e-8), t
