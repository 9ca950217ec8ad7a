import math
from dataclasses import replace

import numpy as np
import pytest

from holospin import darkspace, holonomy, propagate, scenarios
from holospin.model import drive_y, drive_z
from holospin.propagate import PropagationSpec, Trajectory
from holospin.qcore import DIM, IDX_ANC, IDX_ONE, IDX_ZERO, basis_state
from oracles import predicted_final_state_z


def _mixed_qubit():
    return np.diag([0.5, 0.5])


class TestInitialization:
    def test_spin_up_is_preserved_under_sigma_minus(self, params):
        traj, fid = scenarios.run_initialization("sigma_minus", np.diag([0.0, 1.0]), params.gamma,
                                                 4000.0, params)
        assert np.all(traj.states[:, IDX_ONE, IDX_ONE].real >= 0.9995)
        assert fid[-1] >= 0.9995

    def test_zero_rabi_freezes_populations(self, params):
        traj, _ = scenarios.run_initialization("sigma_minus", _mixed_qubit(), 0.0,
                                               1e4, params)
        assert abs(traj.final()[IDX_ZERO, IDX_ZERO].real - 0.5) < 1e-5
        assert abs(traj.final()[IDX_ONE, IDX_ONE].real - 0.5) < 1e-5

    def test_fidelity_non_decreasing_after_halflife(self, params):
        traj, fid = scenarios.run_initialization("sigma_minus", _mixed_qubit(),
                                                 params.gamma, 8000.0, params)
        start = np.searchsorted(traj.times, 1.0 / (2 * params.gamma))
        assert np.all(np.diff(fid[start:]) > -1e-10)

    def test_sigma_plus_prepares_spin_down(self, params):
        traj, fid = scenarios.run_initialization("sigma_plus", _mixed_qubit(),
                                                 params.gamma, 6000.0, params)
        assert traj.final()[IDX_ZERO, IDX_ZERO].real > traj.final()[IDX_ONE, IDX_ONE].real
        assert fid[-1] > 0.5

    def test_rejects_bad_arguments(self, params):
        with pytest.raises(ValueError):
            scenarios.run_initialization("circular", _mixed_qubit(), 1e-3, 100.0, params)
        with pytest.raises(ValueError):
            scenarios.run_initialization("sigma_plus", _mixed_qubit(), -1.0, 100.0, params)


class TestSweeps:
    def test_angle_y_endpoints(self):
        table = scenarios.sweep_angle_y([0.0, 1.0, 3.0, 5.0])
        assert table.angles[0] == 0.0
        assert np.all(np.diff(table.angles) >= -1e-12)
        assert table.angles[-1] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_phase_z_endpoints(self, params):
        table = scenarios.sweep_phase_z([0.0, 6.5, 8.0], params=params)
        assert table.angles[0] == 0.0
        assert abs(table.angles[1] - math.pi / 4) <= 0.01 * math.pi / 4
        assert table.angles[2] == pytest.approx(math.pi / 4, abs=1e-5)

    def test_phase_z_small_delay_dip(self, params):
        # the rise to the plateau is NOT monotone from zero: the tail
        # structure produces a 1e-3-scale dip before delay ratio ~4
        # (invisible at plot scale, pinned here so it is not "fixed" away)
        table = scenarios.sweep_phase_z([1.0, 2.0, 4.0, 5.0, 6.0, 8.0], params=params)
        assert table.angles[0] == pytest.approx(4.355e-3, rel=1e-3)
        assert table.angles[1] == pytest.approx(6.305e-4, rel=1e-3)
        assert table.angles[0] > table.angles[1]
        assert np.all(np.diff(table.angles[2:]) >= 0.0)  # monotone past the dip

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            scenarios.sweep_angle_y([1.0, 1.0])
        with pytest.raises(ValueError):
            scenarios.sweep_angle_y([])

    def test_rejects_unrepresentable_delay(self):
        with pytest.raises(ValueError, match="40"):
            scenarios.sweep_phase_z([0.0, 50.0])


class TestGateSimulation:
    def test_y_closed_loop_matches_prediction(self):
        process, report = scenarios.simulate_gate("y_closed_loop",
                                                  with_decoherence=False)
        predicted = holonomy.predicted_ry(report.angle_quadrature)
        ideal = {label: predicted @ np.outer(q, q.conj()) @ predicted.conj().T
                 for label, q in zip(scenarios._QUBIT_LABELS, scenarios._QUBITS.T)}
        worst = max(float(np.max(np.abs(process[k] - ideal[k]))) for k in process)
        assert worst < 1e-2
        assert report.leakage_final < 1e-3
        assert not report.warnings

    def test_decoherence_never_helps(self):
        _, pure = scenarios.simulate_gate("y_closed_loop", with_decoherence=False)
        _, noisy = scenarios.simulate_gate("y_closed_loop", with_decoherence=True)
        assert noisy.fidelity <= pure.fidelity + 1e-6

    def test_z_reference_keeps_spin_down_decoupled(self):
        process, report = scenarios.simulate_gate("z_fractional",
                                                  with_decoherence=False)
        assert process["0"][0, 0].real >= 1.0 - 1e-6
        # the reference pulse width is far from the adiabatic regime: the
        # driven half of the state is lost and the report must flag it
        assert report.leakage_final > 0.05
        assert report.warnings

    def test_single_pass_prediction(self):
        # the closed loop's forward segment alone carries the dark pair from
        # (|0>, |1>) to (-|a>, |0>), rotated by the quadrature angle
        run = scenarios.default_gate_run("y_closed_loop")
        forward, _ = scenarios._plan("y_closed_loop", run).segments[0]
        spec = PropagationSpec(*forward.window())
        finals = propagate.schrodinger_propagate(drive_y(forward, run.model),
                                                 scenarios._INPUT_STACK, spec).final()
        angle = holonomy.geometric_angle_y(forward).angle
        cos, sin = math.cos(angle), math.sin(angle)
        worst = 1.0
        for q, psi in zip(scenarios._QUBITS.T, finals.T):
            predicted = np.zeros(DIM, dtype=complex)
            predicted[IDX_ANC] = -(cos * q[1] + sin * q[0])
            predicted[IDX_ZERO] = -sin * q[1] + cos * q[0]
            worst = min(worst, float(abs(np.vdot(predicted, psi)) ** 2))
        assert 1.0 - worst < 1e-2

    def test_z_prediction_overlap_matches_single_state_solve(self):
        # independent path: one Schrodinger solve of |1> alone, compared with
        # the raw (unframed) holonomy prediction of the z protocol
        _, report = scenarios.simulate_gate("z_fractional", with_decoherence=False)
        run = scenarios.default_gate_run("z_fractional")
        [(pulseset, _)] = scenarios._plan("z_fractional", run).segments
        spec = PropagationSpec(*pulseset.window())
        psi = propagate.schrodinger_propagate(drive_z(pulseset, run.model),
                                              basis_state(IDX_ONE), spec).final()
        angle = holonomy.geometric_phase_z(pulseset, run.model).angle
        prediction = predicted_final_state_z(angle, run.phase)
        expected = float(abs(np.vdot(prediction, psi)) ** 2)
        assert report.prediction_overlap == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("variant", scenarios.VARIANTS)
    def test_predicted_outputs_have_unit_norm(self, variant):
        plan = scenarios._plan(variant, scenarios.default_gate_run(variant))
        norms = np.linalg.norm(plan.predicted @ scenarios._QUBITS, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_y_prediction_is_the_holonomy_rotation(self):
        # the rotation stays in the qubit: its |0>, |1> rows are the 2x2
        # holonomy at the quadrature angle, and nothing reaches the other levels
        plan = scenarios._plan("y_closed_loop", scenarios.default_gate_run("y_closed_loop"))
        np.testing.assert_array_equal(plan.predicted[[IDX_ZERO, IDX_ONE]],
                                      holonomy.predicted_ry(plan.angle))
        assert np.all(plan.predicted[2:] == 0)

    def test_x_prediction_is_the_composite_rotation(self):
        # the pump is tuned to a pi/4 forward angle, where the two quarter
        # loops around the phase gate make the composite x rotation
        run = scenarios.default_gate_run("x_composite")
        plan = scenarios._plan("x_composite", run)
        np.testing.assert_allclose(plan.predicted[[IDX_ZERO, IDX_ONE]],
                                   holonomy.compose_rx(run.phase), atol=1e-9)
        assert np.all(plan.predicted[2:] == 0)

    def test_x_composite_is_the_y_loop_and_its_mirror(self):
        # x's first two segments are y's loop at the same run; its last two
        # are that loop mirrored: reverse order, delays negated (Stokes and
        # driving envelopes swapped) and Stokes phase chi = -phase
        run = scenarios.default_gate_run("x_composite", pump_amp=0.3)
        x_segments = scenarios._plan("x_composite", run).segments
        loop = scenarios._plan("y_closed_loop", run).segments
        assert x_segments[:2] == loop
        mirror = tuple((replace(pulses, stokes=pulses.driving, driving=pulses.stokes,
                                stokes_phase=-run.phase), template)
                       for pulses, template in reversed(loop))
        assert x_segments[2:] == mirror

    @pytest.mark.parametrize("variant", ["y_closed_loop", "x_composite"])
    def test_adiabatic_gates_follow_prediction(self, variant):
        _, report = scenarios.simulate_gate(variant, with_decoherence=False)
        assert report.prediction_overlap >= 1.0 - 1e-4

    def test_dark_space_residence_through_loop(self, params):
        # population outside the instantaneous dark pair never exceeds 1e-3
        run = scenarios.default_gate_run("y_closed_loop")
        psi = basis_state(IDX_ONE)
        worst = 0.0
        for pulseset, template in scenarios._plan("y_closed_loop", run).segments:
            h_of_t = template(pulseset, params)
            spec = PropagationSpec(*pulseset.window(), rel_tol=1e-10, record_stride=5.0)
            traj = propagate.schrodinger_propagate(h_of_t, psi / np.linalg.norm(psi),
                                                   spec)
            for i, t in enumerate(traj.times):
                pair = darkspace.dark_states_y(
                    darkspace.theta_track(pulseset, t),
                    darkspace.mixing_phi_y(pulseset.pump(t), pulseset.stokes(t),
                                           pulseset.driving(t)))
                inside = np.linalg.norm(pair.conj().T @ traj.states[i]) ** 2
                worst = max(worst, 1.0 - inside)
            psi = traj.final()
        assert worst < 1e-3

    @pytest.mark.parametrize("with_decoherence", [True, False])
    @pytest.mark.parametrize("variant,solves", [("y_closed_loop", 2), ("z_fractional", 1),
                                                ("x_composite", 4)])
    def test_one_solve_per_segment(self, variant, solves, with_decoherence, monkeypatch):
        # the four qubit inputs share each segment's solve; the counting
        # stand-ins return the input unchanged
        calls = []

        def counting(name):
            def solve(h_of_t, *args):
                state, spec = args[-2], args[-1]
                calls.append(name)
                return Trajectory(times=np.array([spec.t_start, spec.t_end]),
                                  states=np.stack([state, state]))
            return solve
        monkeypatch.setattr(scenarios, "lindblad_propagate", counting("density"))
        monkeypatch.setattr(scenarios, "schrodinger_propagate", counting("state"))
        scenarios.simulate_gate(variant, with_decoherence=with_decoherence)
        assert len(calls) == solves

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            scenarios.simulate_gate("w_rotation")
        with pytest.raises(ValueError):
            scenarios.default_gate_run("w_rotation")


class TestGateFidelity:
    def test_exact_target_channel_gives_unity(self):
        target = holonomy.predicted_ry(0.7)
        process = {label: target @ np.outer(q, q.conj()) @ target.conj().T
                   for label, q in zip(scenarios._QUBIT_LABELS, scenarios._QUBITS.T)}
        assert scenarios.gate_fidelity(process, target) == pytest.approx(1.0, abs=1e-12)

    def test_known_rotation_error(self):
        # channel Ry(beta) against target Ry(pi/2):
        # average fidelity is 1 - (2/3) sin^2(beta - pi/2)
        beta = 1.45
        actual = holonomy.predicted_ry(beta)
        process = {label: actual @ np.outer(q, q.conj()) @ actual.conj().T
                   for label, q in zip(scenarios._QUBIT_LABELS, scenarios._QUBITS.T)}
        fid = scenarios.gate_fidelity(process, holonomy.predicted_ry(math.pi / 2))
        expected = 1.0 - (2.0 / 3.0) * math.sin(beta - math.pi / 2) ** 2
        assert fid == pytest.approx(expected, abs=1e-6)

    def test_sphere_seed_rotation_consistent(self):
        target = holonomy.predicted_rz(0.3)
        process = {label: target @ np.outer(q, q.conj()) @ target.conj().T
                   for label, q in zip(scenarios._QUBIT_LABELS, scenarios._QUBITS.T)}
        a = scenarios.gate_fidelity(process, target, seed=None)
        b = scenarios.gate_fidelity(process, target, seed=7)
        assert a == pytest.approx(b, abs=1e-4)


class TestReadout:
    def test_spin_down_is_dark(self, params):
        result = scenarios.run_readout(np.diag([1.0, 0.0]).astype(complex),
                                       40000.0, params)
        assert result.total_photons < 1e-3
        assert result.shelving_complete

    def test_rejects_bad_trace(self, params):
        with pytest.raises(ValueError):
            scenarios.run_readout(np.diag([0.2, 0.2]).astype(complex), 1000.0, params)
