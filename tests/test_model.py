import numpy as np
import pytest

from holospin import model, pulses, scenarios


class TestZeeman:
    def test_zero_field(self):
        assert model.zeeman_from_field(0.0, -0.21) == 0.0

    def test_reference_point(self):
        # 55 mT at |g| = 0.21 gives about 1.016e-3 rad/ps (~ 1 GHz angular)
        val = model.zeeman_from_field(0.055, -0.21)
        assert val == pytest.approx(1.016e-3, rel=1e-3)

    def test_linear_in_field(self):
        one = model.zeeman_from_field(0.055, -0.21)
        two = model.zeeman_from_field(0.110, -0.21)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            model.zeeman_from_field(-1.0, 0.2)


class TestModelParams:
    def test_defaults_are_reference_values(self):
        mp = model.ModelParams()
        assert mp.delta == pytest.approx(1.016e-3)
        assert mp.gamma == pytest.approx(6.25e-4)   # 1/(2 gamma) = 800 ps
        assert mp.gamma_hh == pytest.approx(1e-9)   # 1 ms spin-flip time
        assert mp.gamma_ee == pytest.approx(1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.ModelParams(delta=0.0)
        with pytest.raises(ValueError):
            model.ModelParams(gamma=-1.0)


def _silent_pulseset():
    return pulses.PulseSet(pump=pulses.OFF, stokes=pulses.OFF, driving=pulses.OFF,
                           width=100.0)


class TestHamiltonianY:
    def test_field_free_diagonal(self):
        mp = model.ModelParams(delta=1e-3, detuning=0.1)
        h = model.build_h_y(0.0, _silent_pulseset(), mp)
        np.testing.assert_allclose(np.diag(h), [0, 0, 0, -0.1, -0.101], atol=1e-15)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_exactly_hermitian(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.4, 0.3, 150.0, 100.0)
        for t in (-300.0, -37.5, 0.0, 88.0, 400.0):
            h = model.build_h_y(t, ps, params)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_coupling_layout(self, params):
        ps = pulses.make_y_pulseset(0.4, 0.5, 0.6, 150.0, 100.0)
        h = model.build_h_y(0.0, ps, params)
        assert h[3, 0] == pytest.approx(-ps.pump(0.0))
        assert h[4, 1] == pytest.approx(-ps.stokes(0.0))
        assert h[3, 2] == pytest.approx(-ps.driving(0.0))
        # no direct coupling inside the ground manifold or between electrons
        assert h[0, 1] == h[0, 2] == h[1, 2] == h[3, 4] == 0.0

    def test_midpoint_detuning_rejected(self):
        mp = model.ModelParams(delta=1e-3, detuning=-0.5e-3)
        with pytest.raises(ValueError, match="midpoint"):
            model.build_h_y(0.0, _silent_pulseset(), mp)


class TestHamiltonianZ:
    def test_field_free_diagonal(self, params):
        h = model.build_h_z(0.0, _silent_pulseset(), params)
        np.testing.assert_allclose(
            np.diag(h), [0, 0, 0, params.delta / 2, -params.delta / 2], atol=1e-18)

    def test_zero_phase_real_symmetric(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0)
        h = model.build_h_z(-300.0, ps, params)
        assert np.max(np.abs(h.imag)) == 0.0
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_phase_enters_stokes_coupling(self, params):
        phi = 0.6
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, phi)
        h = model.build_h_z(0.0, ps, params)
        assert h[3, 1] == pytest.approx(-ps.stokes(0.0) * np.exp(-1j * phi))
        assert np.max(np.abs(h - h.conj().T)) < 1e-18

    def test_pump_rejected(self, params):
        bad = pulses.PulseSet(pump=pulses.ConstantPulse(0.1), stokes=pulses.OFF,
                              driving=pulses.OFF, width=100.0)
        with pytest.raises(ValueError, match="pump"):
            model.build_h_z(0.0, bad, params)

    def test_zero_state_decoupled(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.9)
        h = model.build_h_z(-200.0, ps, params)
        assert np.max(np.abs(h[0, :])) == 0.0
        assert np.max(np.abs(h[:, 0])) == 0.0


def _template_segments():
    # the gate segments of every variant (z and the x composite's second loop
    # carry a Stokes phase of +-pi/2) and init's constant drive
    out = []
    for variant in ("y_closed_loop", "z_fractional", "x_composite"):
        segments, _ = scenarios._segments(variant, scenarios.default_gate_run(variant))
        out += [(variant, pulseset, config, window) for pulseset, config, window in segments]
    init = pulses.PulseSet(pump=pulses.ConstantPulse(0.05), stokes=pulses.OFF,
                           driving=pulses.OFF, width=100.0)
    return out + [("init", init, "y", (0.0, 1000.0))]


class TestDriveTemplates:
    @pytest.mark.parametrize("name,pulseset,config,window", _template_segments())
    def test_matches_element_wise_builder(self, name, pulseset, config, window, params, rng):
        build, template = ((model.build_h_y, model.drive_y) if config == "y"
                           else (model.build_h_z, model.drive_z))
        drive = template(pulseset, params)
        for t in rng.uniform(*window, size=200):
            np.testing.assert_array_equal(drive(float(t)), build(float(t), pulseset, params))

    def test_z_leaves_the_pump_term_out(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.3)
        drive = model.drive_z(ps, params)
        envelopes = [f for f, _ in drive.terms]
        assert len(envelopes) == 2
        assert envelopes[0] is ps.stokes and envelopes[1] is ps.driving

    def test_z_rejects_pump(self, params):
        bad = pulses.PulseSet(pump=pulses.GaussianPulse(0.1, 0.0, 100.0), stokes=pulses.OFF,
                              driving=pulses.OFF, width=100.0)
        with pytest.raises(ValueError, match="pump"):
            model.drive_z(bad, params)

    def test_y_rejects_midpoint_detuning(self):
        mp = model.ModelParams(delta=1e-3, detuning=-0.5e-3)
        with pytest.raises(ValueError, match="midpoint"):
            model.drive_y(_silent_pulseset(), mp)


class TestChannels:
    def test_structure(self, params):
        chans = model.lindblad_channels(params)
        assert len(chans) == 8
        recomb = [c for c in chans if c.rate == params.gamma]
        assert {(c.source, c.target) for c in recomb} == {(3, 0), (3, 1), (4, 0), (4, 1)}
        flips = [c for c in chans if c.rate == params.gamma_hh]
        assert {(c.source, c.target) for c in flips} >= {(0, 1), (1, 0)}

    def test_matrix_rank_one(self, params):
        for ch in model.lindblad_channels(params):
            op = ch.matrix()
            assert np.count_nonzero(op) <= 1
            if ch.rate > 0:
                assert op[ch.target, ch.source] == pytest.approx(np.sqrt(ch.rate))

    def test_zero_rates_give_zero_operators(self):
        mp = model.ModelParams(gamma=0.0, gamma_hh=0.0, gamma_ee=0.0)
        chans = model.lindblad_channels(mp)
        assert len(chans) == 8
        assert all(np.all(c.matrix() == 0) for c in chans)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            model.LindbladChannel(-1.0, 0, 1)
