import math
from dataclasses import replace

import numpy as np
import pytest

from holospin import model, propagate, pulses
from holospin.model import ModelParams, lindblad_channels
from holospin.propagate import PropagationSpec
from holospin.qcore import DIM, basis_state, dense_expm, density_from_state


_zero_h = model.Drive(np.zeros((DIM, DIM), dtype=complex), ())


class TestSpecValidation:
    def test_window(self):
        with pytest.raises(ValueError):
            PropagationSpec(1.0, 1.0)

    def test_tolerances(self):
        with pytest.raises(ValueError):
            PropagationSpec(0.0, 1.0, rel_tol=0.5)

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_abs_tol_must_be_positive_and_finite(self, abs_tol):
        with pytest.raises(ValueError, match="abs_tol"):
            PropagationSpec(0.0, 1.0, abs_tol=abs_tol)

    def test_sample_times(self):
        spec = PropagationSpec(0.0, 10.0, record_stride=3.0)
        np.testing.assert_allclose(spec.sample_times(), [0, 3, 6, 9, 10])
        spec = PropagationSpec(0.0, 10.0)
        np.testing.assert_allclose(spec.sample_times(), [0, 10])


class TestSchrodinger:
    def test_free_evolution(self):
        psi0 = basis_state(1)
        traj = propagate.schrodinger_propagate(_zero_h, psi0,
                                               PropagationSpec(0.0, 100.0))
        np.testing.assert_allclose(traj.final(), psi0, atol=1e-12)

    def test_rabi_closed_form(self):
        # constant coupling -omega(|e1><0| + h.c.): pop_e1 = sin^2(omega t)
        omega = 0.31
        h = np.zeros((DIM, DIM), dtype=complex)
        h[3, 0] = h[0, 3] = -omega
        t_end = 7.3
        traj = propagate.schrodinger_propagate(model.Drive(h, ()), basis_state(0),
                                               PropagationSpec(0.0, t_end, rel_tol=1e-11))
        pop_e1 = abs(traj.final()[3]) ** 2
        assert pop_e1 == pytest.approx(math.sin(omega * t_end) ** 2, abs=1e-9)

    def test_stirap_transfer(self, params):
        # pump off, driving early: |1> rides the dark state into |a>
        ps = pulses.make_y_pulseset(0.0, 0.5, 0.5, 100.0, 100.0)
        lo, hi = ps.window()
        spec = PropagationSpec(lo, hi, rel_tol=1e-10)
        traj = propagate.schrodinger_propagate(model.drive_y(ps, params), basis_state(1), spec)
        assert abs(traj.final()[2]) ** 2 >= 0.999

    def test_lone_pulse_is_not_stepped_over(self, params):
        # a 10 ps pulse at 5000 ps: the step cap from its width keeps the
        # solve from striding across it while every field is ~0
        pump = pulses.GaussianPulse(0.05, 5000.0, 10.0)
        ps = pulses.PulseSet(pump=pump, stokes=pulses.OFF, driving=pulses.OFF)
        psi0 = basis_state(0)
        adaptive = propagate.schrodinger_propagate(model.drive_y(ps, params), psi0,
                                                   PropagationSpec(0.0, 6000.0, rel_tol=1e-10))
        # oracle over the pulse region (|0> is stationary before it), then the
        # exact free evolution under the diagonal H0 to the end of the window
        lo, hi = 5000.0 - 80.0, 5000.0 + 80.0
        psi = propagate.oracle_propagate(lambda t: -1j * model.build_h_y(t, ps, params), psi0,
                                         0.05, lo, hi)
        h0 = np.diag(model.build_h_y(0.0, ps, params))
        expected = np.exp(-1j * h0 * (6000.0 - hi)) * psi
        assert abs(expected[0]) ** 2 < 0.2
        assert np.max(np.abs(adaptive.final() - expected)) < 1e-6

    def test_norm_drift_bound(self, params, monkeypatch):
        # count DOP853's steps (accepted and rejected) at the source
        from scipy.integrate._ivp import rk
        steps = [0]
        rk_step = rk.rk_step

        def counting(*args, **kwargs):
            steps[0] += 1
            return rk_step(*args, **kwargs)
        monkeypatch.setattr(rk, "rk_step", counting)
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        lo, hi = ps.window()
        spec = PropagationSpec(lo, hi, rel_tol=1e-10)
        traj = propagate.schrodinger_propagate(model.drive_y(ps, params), basis_state(0), spec)
        bound = 10.0 * spec.rel_tol * math.sqrt(steps[0])
        assert traj.meta["norm_drift"] <= bound

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            propagate.schrodinger_propagate(_zero_h, 0.5 * basis_state(0),
                                            PropagationSpec(0.0, 1.0))

    def test_diagonal_hamiltonian_freezes_populations(self, params):
        # silent envelopes leave both Hamiltonians diagonal: phases only
        silent = pulses.PulseSet(pump=pulses.OFF, stokes=pulses.OFF,
                                 driving=pulses.OFF)
        psi0 = np.array([0.5, 0.5, 0.5, 0.5, 0.5], dtype=complex)
        psi0 /= np.linalg.norm(psi0)
        for template in (model.drive_y, model.drive_z):
            traj = propagate.schrodinger_propagate(
                template(silent, params), psi0, PropagationSpec(0.0, 5000.0, rel_tol=1e-11))
            drift = np.max(np.abs(np.abs(traj.final()) ** 2 - np.abs(psi0) ** 2))
            assert drift < 1e-12

    def test_trajectory_times_increase(self):
        spec = PropagationSpec(0.0, 50.0, record_stride=5.0)
        traj = propagate.schrodinger_propagate(_zero_h, basis_state(0), spec)
        assert np.all(np.diff(traj.times) > 0)


class TestLindblad:
    def test_matches_schrodinger_without_channels(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        h_of_t = model.drive_y(ps, params)
        spec = PropagationSpec(-500.0, 500.0, rel_tol=1e-10)
        pure = propagate.schrodinger_propagate(h_of_t, basis_state(1), spec).final()
        mixed = propagate.lindblad_propagate(
            h_of_t, [], density_from_state(basis_state(1)), spec).final()
        assert np.max(np.abs(mixed - density_from_state(pure))) < 1e-8

    def test_recombination_decay(self, params):
        # two equal destinations: excited population decays as exp(-2 gamma t)
        chans = lindblad_channels(params)[:4]  # the four recombination operators
        rho0 = density_from_state(basis_state(3))
        t_end = 2000.0
        traj = propagate.lindblad_propagate(_zero_h, chans, rho0,
                                            PropagationSpec(0.0, t_end, rel_tol=1e-10))
        expected = math.exp(-2 * params.gamma * t_end)
        assert traj.final()[3, 3].real == pytest.approx(expected, rel=1e-7)

    def test_spin_flip_equilibration(self):
        mp = ModelParams(gamma=0.0, gamma_hh=2e-4, gamma_ee=0.0)
        chans = [op for op in lindblad_channels(mp) if op.any()]
        rho0 = density_from_state(basis_state(1))
        t_end = 5000.0
        traj = propagate.lindblad_propagate(_zero_h, chans, rho0,
                                            PropagationSpec(0.0, t_end, rel_tol=1e-10))
        expected = 0.5 * (1.0 + math.exp(-2 * mp.gamma_hh * t_end))
        assert traj.final()[1, 1].real == pytest.approx(expected, rel=1e-7)

    def test_slow_flips_barely_move_populations(self, params):
        # 10 ns with millisecond flip times changes populations by <= 1e-5
        chans = lindblad_channels(params)
        rho0 = density_from_state(basis_state(1))
        traj = propagate.lindblad_propagate(_zero_h, chans, rho0,
                                            PropagationSpec(0.0, 1e4, rel_tol=1e-10))
        assert abs(traj.final()[1, 1].real - 1.0) <= 1e-5

    def test_trace_and_positivity_meta(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        spec = PropagationSpec(-950.0, 950.0, rel_tol=1e-10, record_stride=100.0)
        traj = propagate.lindblad_propagate(
            model.drive_y(ps, params), lindblad_channels(params),
            density_from_state(basis_state(0)), spec)
        assert traj.meta["trace_drift"] < 1e-9
        assert traj.meta["min_eigenvalue"] > -1e-8
        assert traj.meta["hermiticity_deviation"] < 1e-9

    def test_positivity_violation_raises(self):
        rho0 = np.diag([1.2, -0.2, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="positivity"):
            propagate.lindblad_propagate(_zero_h, [], rho0,
                                         PropagationSpec(0.0, 1.0))


def _constant_drive(entries):
    h = np.zeros((DIM, DIM), dtype=complex)
    for index, value in entries.items():
        h[index] = value
    return model.Drive(h, ())


# non-Hermitian on purpose: |e2> decays and |1> feeds |0> one way only,
# so the norm of |e2> and the Hermiticity of |1><1| drift
_leaky_h = _constant_drive({(4, 4): -2e-3j, (0, 1): 1e-6})
_rabi_h = _constant_drive({(0, 0): 0.37, (3, 3): -0.2, (0, 3): 0.6 + 0.1j, (3, 0): 0.6 - 0.1j})


# the four qubit inputs of a gate's channel reconstruction
_QUBIT_INPUTS = [basis_state(0), basis_state(1),
                 (basis_state(0) + basis_state(1)) / math.sqrt(2),
                 (basis_state(0) + 1j * basis_state(1)) / math.sqrt(2)]


class TestStacks:
    def test_schrodinger_stack_matches_single_solves(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        h_of_t = model.drive_y(ps, params)
        spec = PropagationSpec(-950.0, 950.0, record_stride=100.0)
        stack = propagate.schrodinger_propagate(h_of_t, np.stack(_QUBIT_INPUTS), spec)
        assert stack.states.shape == (len(stack.times), 4, DIM)
        for k, psi in enumerate(_QUBIT_INPUTS):
            single = propagate.schrodinger_propagate(h_of_t, psi, spec)
            np.testing.assert_array_equal(single.times, stack.times)
            assert np.max(np.abs(stack.states[:, k] - single.states)) < 1e-9

    def test_lindblad_stack_matches_single_solves(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        h_of_t = model.drive_y(ps, params)
        chans = lindblad_channels(params)
        assert len(chans) == 8
        spec = PropagationSpec(-950.0, 950.0, record_stride=100.0)
        inputs = [density_from_state(psi) for psi in _QUBIT_INPUTS]
        stack = propagate.lindblad_propagate(h_of_t, chans, np.stack(inputs), spec)
        assert stack.states.shape == (len(stack.times), 4, DIM, DIM)
        for k, rho in enumerate(inputs):
            single = propagate.lindblad_propagate(h_of_t, chans, rho, spec)
            assert np.max(np.abs(stack.states[:, k] - single.states)) < 1e-9

    def test_unnormalized_member_rejected(self):
        # a row stack with exactly one member off unit norm
        stack = np.stack([basis_state(0), 0.5 * basis_state(1), basis_state(2)])
        np.testing.assert_array_equal(np.linalg.norm(stack, axis=-1), [1.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="normalized"):
            propagate.schrodinger_propagate(_zero_h, stack, PropagationSpec(0.0, 1.0))

    def test_meta_covers_every_member(self):
        # one drifting member between two copies of |a>, which none of the
        # generators below moves: only a reduction over the stack sees it
        spec = PropagationSpec(0.0, 100.0)
        quiet = basis_state(2)
        leaky = propagate.schrodinger_propagate(_leaky_h, basis_state(4), spec).meta
        stack = propagate.schrodinger_propagate(
            _leaky_h, np.stack([quiet, basis_state(4), quiet]), spec).meta
        assert leaky["norm_drift"] > 0.1
        assert stack["norm_drift"] == pytest.approx(leaky["norm_drift"], rel=1e-9)

        def lindblad_meta(h_of_t, loud, channels):
            rho_q = density_from_state(quiet)
            members = [propagate.lindblad_propagate(h_of_t, channels, rho, spec).meta
                       for rho in (rho_q, loud)]
            stack = propagate.lindblad_propagate(h_of_t, channels,
                                                 np.stack([rho_q, loud, rho_q]), spec).meta
            return members, stack

        (q, single), stack = lindblad_meta(_leaky_h, density_from_state(basis_state(1)), [])
        assert q["hermiticity_deviation"] == 0.0 and single["hermiticity_deviation"] > 1e-5
        assert stack["hermiticity_deviation"] == pytest.approx(
            single["hermiticity_deviation"], rel=1e-9)

        # the generator preserves the trace exactly, so the drift is rounding
        decay = np.zeros((1, DIM, DIM))
        decay[0, 0, 3] = math.sqrt(0.05)
        (q, single), stack = lindblad_meta(_rabi_h, density_from_state(basis_state(0)), decay)
        assert q["trace_drift"] == 0.0 and single["trace_drift"] > 0.0
        assert 0.0 < stack["trace_drift"] < 1e-12

        (q, single), stack = lindblad_meta(_zero_h, np.diag([1.0 + 1e-9, -1e-9, 0, 0, 0]), [])
        assert q["min_eigenvalue"] == 0.0
        assert single["min_eigenvalue"] == pytest.approx(-1e-9, rel=1e-6)
        assert stack["min_eigenvalue"] == single["min_eigenvalue"]


def _capture_rhs(monkeypatch):
    """Replace the shared solve by a stand-in that keeps the RHS it is given."""
    captured = []

    def solve(rhs, y0, spec, drive, kind):
        captured.append(rhs)
        return propagate.Trajectory(times=np.array([spec.t_start, spec.t_end]),
                                    states=np.stack([y0, y0]))
    monkeypatch.setattr(propagate, "_solve", solve)
    return captured


class TestDriveTemplates:
    """A Drive is stacked once per solve; the stacked RHS must equal the
    textbook right-hand side built from the element-wise H(t)."""

    @pytest.mark.parametrize("make_pulses,template,build", [
        (lambda: replace(pulses.make_y_pulseset(0.5, 0.4, 0.3, 150.0, 100.0),
                         stokes_phase=-0.9), model.drive_y, model.build_h_y),
        (lambda: pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.7),
         model.drive_z, model.build_h_z)])
    def test_rhs_matches_callable_on_input_stack(self, make_pulses, template, build,
                                                 params, rng, monkeypatch):
        ps = make_pulses()
        jumps = lindblad_channels(params)
        captured = _capture_rhs(monkeypatch)
        spec = PropagationSpec(-1000.0, 1000.0)
        psi = np.stack(_QUBIT_INPUTS)
        rho = np.stack([density_from_state(p) for p in _QUBIT_INPUTS])
        propagate.schrodinger_propagate(template(ps, params), psi, spec)
        propagate.lindblad_propagate(template(ps, params), jumps, rho, spec)
        schrodinger_rhs, lindblad_rhs = captured

        def schrodinger(t, y):
            return np.stack([-1j * build(t, ps, params) @ row for row in y])

        def lindblad(t, y):
            h = build(t, ps, params)
            out = -1j * (h @ y - y @ h)
            for jump in jumps:
                jump_dag = jump.conj().T
                out += (jump @ y @ jump_dag
                        - 0.5 * (jump_dag @ jump @ y + y @ jump_dag @ jump))
            return out

        for t in rng.uniform(-1000.0, 1000.0, size=50):
            for shape, stacked, textbook in ((psi.shape, schrodinger_rhs, schrodinger),
                                             (rho.shape, lindblad_rhs, lindblad)):
                y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                np.testing.assert_allclose(stacked(t, y.ravel()), textbook(t, y).ravel(),
                                           rtol=0, atol=1e-14)

    def test_oracle_accepts_drive(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        drive = model.drive_y(ps, params)
        via_drive = propagate.oracle_propagate(lambda t: -1j * drive(t), basis_state(1),
                                               5.0, -450.0, 450.0)
        via_builder = propagate.oracle_propagate(lambda t: -1j * model.build_h_y(t, ps, params),
                                                 basis_state(1), 5.0, -450.0, 450.0)
        np.testing.assert_array_equal(via_drive, via_builder)


class TestOracle:
    def test_identity_action(self):
        psi = propagate.oracle_propagate(_zero_h, basis_state(2), 0.5, 0.0, 50.0)
        np.testing.assert_allclose(psi, basis_state(2), atol=1e-14)

    def test_fourth_order_convergence(self, params):
        # the Richardson pair cancels the midpoint rule's dt^2 error term, and
        # the next one is dt^4: halving dt divides the error by about 16
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        g_of_t = lambda t: -1j * model.build_h_y(t, ps, params)
        lo, hi = -450.0, 450.0
        ref = propagate.oracle_propagate(g_of_t, basis_state(1), 0.1, lo, hi)
        err = []
        for dt in (1.0, 0.5):
            psi = propagate.oracle_propagate(g_of_t, basis_state(1), dt, lo, hi)
            err.append(np.linalg.norm(psi - ref))
        assert err[1] == pytest.approx(err[0] / 16.0, rel=0.2)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            propagate.oracle_propagate(_zero_h, basis_state(0), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("n", [1, propagate._ORACLE_BLOCK, 2 * propagate._ORACLE_BLOCK + 1])
    def test_blocks_equal_one_exponential_per_step(self, n, params):
        # the batched exponentials of a block, applied in order, are the
        # per-step midpoint product bit for bit, at and across block edges;
        # the oracle combines the products over n and 2n steps
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        g_of_t = lambda t: -1j * model.build_h_y(t, ps, params)
        lo, hi = -450.0, 450.0

        def product(steps):
            step = (hi - lo) / steps
            psi = basis_state(1)
            for k in range(steps):
                psi = dense_expm(step * g_of_t(lo + (k + 0.5) * step)) @ psi
            return psi
        # a step a little over (hi - lo) / n gives exactly n coarse steps
        blocked = propagate.oracle_propagate(g_of_t, basis_state(1), (hi - lo) / (n - 0.5),
                                             lo, hi)
        np.testing.assert_array_equal(blocked, (4.0 * product(2 * n) - product(n)) / 3.0)
