import math

import numpy as np
import pytest

from holospin import model, pulses, scenarios


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
        # the one home of the non-negative rate rule: a jump operator is any matrix
        for rate in ("gamma", "gamma_hh", "gamma_ee"):
            with pytest.raises(ValueError, match="non-negative"):
                model.ModelParams(**{rate: -1.0})

    @pytest.mark.parametrize("field", ["delta", "detuning", "gamma", "gamma_hh", "gamma_ee"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_field_must_be_finite(self, field, value):
        # each comparison is false for NaN: without the check, a NaN delta
        # or detuning failed the solve's Hermiticity check, a NaN or
        # infinite rate its step-size control, and an infinite delta the
        # midpoint check
        with pytest.raises(ValueError, match="finite"):
            model.ModelParams(**{field: value})

    def test_midpoint_detuning_rejected(self):
        # -delta/2 is the z configuration's tuning; no y run may take it
        with pytest.raises(ValueError, match="midpoint"):
            model.ModelParams(delta=1e-3, detuning=-0.5e-3)


def _silent_pulseset():
    return pulses.PulseSet(pump=pulses.OFF, stokes=pulses.OFF, driving=pulses.OFF)


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
        # the rule fires when the parameters are made, so no y Hamiltonian
        # is ever built at -delta/2
        with pytest.raises(ValueError, match="midpoint"):
            mp = model.ModelParams(delta=1e-3, detuning=-0.5e-3)
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
        bad = pulses.PulseSet(pump=pulses.Envelope(0.1), stokes=pulses.OFF,
                              driving=pulses.OFF)
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
    for variant in scenarios.VARIANTS:
        segments = scenarios._plan(variant, scenarios.default_gate_run(variant)).segments
        out += [(variant, pulseset, template, pulseset.window())
                for pulseset, template in segments]
    init = pulses.PulseSet(pump=pulses.Envelope(0.05), stokes=pulses.OFF,
                           driving=pulses.OFF)
    return out + [("init", init, model.drive_y, (0.0, 1000.0))]


class TestDriveTemplates:
    # the ids name a template by its configuration, y or z
    @pytest.mark.parametrize("name,pulseset,template,window", _template_segments(),
                             ids=lambda v: {model.drive_y: "y", model.drive_z: "z"}.get(v)
                             if callable(v) else None)
    def test_matches_element_wise_builder(self, name, pulseset, template, window, params, rng):
        build = {model.drive_y: model.build_h_y, model.drive_z: model.build_h_z}[template]
        drive = template(pulseset, params)
        for t in rng.uniform(*window, size=200):
            np.testing.assert_array_equal(drive(float(t)), build(float(t), pulseset, params))

    @pytest.mark.parametrize("name,pulseset,template,window", _template_segments(),
                             ids=lambda v: {model.drive_y: "y", model.drive_z: "z"}.get(v)
                             if callable(v) else None)
    def test_arrays_of_times(self, name, pulseset, template, window, params, rng):
        # over an array of times the template equals the builder bit for
        # bit, and both equal the single-time Hamiltonians to rounding
        build = {model.drive_y: model.build_h_y, model.drive_z: model.build_h_z}[template]
        times = rng.uniform(*window, size=50)
        stack = build(times, pulseset, params)
        assert stack.shape == (50, 5, 5)
        np.testing.assert_array_equal(template(pulseset, params)(times), stack)
        for t, h in zip(times.tolist(), stack):
            np.testing.assert_allclose(h, build(t, pulseset, params), rtol=0, atol=1e-15)

    def test_z_pump_check_covers_every_time(self, params):
        # a 10 ps pump underflows to 0 at 5000 and 6000 ps but not at 0
        pumped = pulses.PulseSet(pump=pulses.Envelope(0.1, (0.0,), 10.0), stokes=pulses.OFF,
                                 driving=pulses.OFF)
        model.build_h_z(np.array([5000.0, 6000.0]), pumped, params)
        with pytest.raises(ValueError, match="pump"):
            model.build_h_z(np.array([5000.0, 0.0, 6000.0]), pumped, params)

    def test_z_leaves_the_pump_term_out(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.3)
        drive = model.drive_z(ps, params)
        envelopes = [f for f, _ in drive.terms]
        assert len(envelopes) == 2
        assert envelopes[0] is ps.stokes and envelopes[1] is ps.driving

    def test_z_rejects_pump(self, params):
        bad = pulses.PulseSet(pump=pulses.Envelope(0.1, (0.0,), 100.0), stokes=pulses.OFF,
                              driving=pulses.OFF)
        with pytest.raises(ValueError, match="pump"):
            model.drive_z(bad, params)

    def test_y_rejects_midpoint_detuning(self):
        with pytest.raises(ValueError, match="midpoint"):
            mp = model.ModelParams(delta=1e-3, detuning=-0.5e-3)
            model.drive_y(_silent_pulseset(), mp)


# distinct rates, so that each jump operator's entry names its rate
_RATES = model.ModelParams(gamma=4e-4, gamma_hh=9e-6, gamma_ee=2.5e-5)
# (rate, target, source) of each jump operator, in the model's order
_JUMPS = [(_RATES.gamma, 0, 3), (_RATES.gamma, 1, 3), (_RATES.gamma, 0, 4), (_RATES.gamma, 1, 4),
          (_RATES.gamma_hh, 0, 1), (_RATES.gamma_hh, 1, 0),
          (_RATES.gamma_ee, 3, 4), (_RATES.gamma_ee, 4, 3)]


class TestChannels:
    def test_structure(self):
        ops = model.lindblad_channels(_RATES)
        assert len(ops) == 8
        for op, (_, target, source) in zip(ops, _JUMPS):
            assert op.shape == (5, 5)
            assert np.flatnonzero(op).tolist() == [5 * target + source]

    def test_matrix_rank_one(self):
        for op, (rate, target, source) in zip(model.lindblad_channels(_RATES), _JUMPS):
            assert op[target, source] == np.sqrt(rate)

    def test_zero_rates_give_zero_operators(self):
        mp = model.ModelParams(gamma=0.0, gamma_hh=0.0, gamma_ee=0.0)
        ops = model.lindblad_channels(mp)
        assert len(ops) == 8
        assert all(np.all(op == 0) for op in ops)
