import math

import numpy as np
import pytest

from holospin import model, propagate, pulses
from holospin.model import ModelParams, lindblad_channels
from holospin.propagate import PropagationSpec
from holospin.qcore import DIM, basis_state, density_from_state


def _zero_h(t):
    return np.zeros((DIM, DIM), dtype=complex)


class TestSpecValidation:
    def test_window(self):
        with pytest.raises(ValueError):
            PropagationSpec(1.0, 1.0)

    def test_tolerances(self):
        with pytest.raises(ValueError):
            PropagationSpec(0.0, 1.0, rel_tol=0.5)
        with pytest.raises(ValueError):
            PropagationSpec(0.0, 1.0, abs_tol=0.0)

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
        traj = propagate.schrodinger_propagate(lambda t: h, basis_state(0),
                                               PropagationSpec(0.0, t_end, rel_tol=1e-11))
        pop_e1 = abs(traj.final()[3]) ** 2
        assert pop_e1 == pytest.approx(math.sin(omega * t_end) ** 2, abs=1e-9)

    def test_stirap_transfer(self, params):
        # pump off, driving early: |1> rides the dark state into |a>
        ps = pulses.make_y_pulseset(0.0, 0.5, 0.5, 100.0, 100.0)
        lo, hi = ps.window()
        spec = PropagationSpec(lo, hi, rel_tol=1e-10, max_step=2.0)
        traj = propagate.schrodinger_propagate(
            lambda t: model.build_h_y(t, ps, params), basis_state(1), spec)
        assert abs(traj.final()[2]) ** 2 >= 0.999

    def test_norm_drift_bound(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        lo, hi = ps.window()
        spec = PropagationSpec(lo, hi, rel_tol=1e-10, max_step=2.0)
        traj = propagate.schrodinger_propagate(
            lambda t: model.build_h_y(t, ps, params), basis_state(0), spec)
        bound = 10.0 * spec.rel_tol * math.sqrt(traj.meta["n_steps"])
        assert traj.meta["norm_drift"] <= bound

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            propagate.schrodinger_propagate(_zero_h, 0.5 * basis_state(0),
                                            PropagationSpec(0.0, 1.0))

    def test_diagonal_hamiltonian_freezes_populations(self, params):
        # silent envelopes leave both Hamiltonians diagonal: phases only
        silent = pulses.PulseSet(pump=pulses.OFF, stokes=pulses.OFF,
                                 driving=pulses.OFF, width=100.0)
        psi0 = np.array([0.5, 0.5, 0.5, 0.5, 0.5], dtype=complex)
        psi0 /= np.linalg.norm(psi0)
        for build in (model.build_h_y, model.build_h_z):
            traj = propagate.schrodinger_propagate(
                lambda t: build(t, silent, params), psi0,
                PropagationSpec(0.0, 5000.0, rel_tol=1e-11))
            drift = np.max(np.abs(np.abs(traj.final()) ** 2 - np.abs(psi0) ** 2))
            assert drift < 1e-12

    def test_trajectory_times_increase(self):
        spec = PropagationSpec(0.0, 50.0, record_stride=5.0)
        traj = propagate.schrodinger_propagate(_zero_h, basis_state(0), spec)
        assert np.all(np.diff(traj.times) > 0)


class TestLindblad:
    def test_matches_schrodinger_without_channels(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        h_of_t = lambda t: model.build_h_y(t, ps, params)
        spec = PropagationSpec(-500.0, 500.0, rel_tol=1e-10, max_step=2.0)
        pure = propagate.schrodinger_propagate(h_of_t, basis_state(1), spec).final()
        mixed = propagate.lindblad_propagate(
            h_of_t, [], density_from_state(basis_state(1)), spec).final()
        assert np.max(np.abs(mixed - density_from_state(pure))) < 1e-8

    def test_recombination_decay(self, params):
        # two equal destinations: excited population decays as exp(-2 gamma t)
        chans = [c for c in lindblad_channels(params) if c.rate == params.gamma]
        rho0 = density_from_state(basis_state(3))
        t_end = 2000.0
        traj = propagate.lindblad_propagate(_zero_h, chans, rho0,
                                            PropagationSpec(0.0, t_end, rel_tol=1e-10))
        expected = math.exp(-2 * params.gamma * t_end)
        assert traj.final()[3, 3].real == pytest.approx(expected, rel=1e-7)

    def test_spin_flip_equilibration(self):
        mp = ModelParams(gamma=0.0, gamma_hh=2e-4, gamma_ee=0.0)
        chans = [c for c in lindblad_channels(mp) if c.rate > 0]
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
                                            PropagationSpec(0.0, 1e4, rel_tol=1e-10,
                                                            max_step=100.0))
        assert abs(traj.final()[1, 1].real - 1.0) <= 1e-5

    def test_trace_and_positivity_meta(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        spec = PropagationSpec(-950.0, 950.0, rel_tol=1e-10, max_step=2.0,
                               record_stride=100.0)
        traj = propagate.lindblad_propagate(
            lambda t: model.build_h_y(t, ps, params), lindblad_channels(params),
            density_from_state(basis_state(0)), spec)
        assert traj.meta["trace_drift"] < 1e-9
        assert traj.meta["min_eigenvalue"] > -1e-8
        assert traj.meta["hermiticity_deviation"] < 1e-9

    def test_positivity_violation_raises(self):
        rho0 = np.diag([1.2, -0.2, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="positivity"):
            propagate.lindblad_propagate(_zero_h, [], rho0,
                                         PropagationSpec(0.0, 1.0))


def _leaky_h(t):
    # non-Hermitian on purpose: |e2> decays and |1> feeds |0> one way only,
    # so the norm of |e2> and the Hermiticity of |1><1| drift
    h = np.zeros((DIM, DIM), dtype=complex)
    h[4, 4] = -2e-3j
    h[0, 1] = 1e-6
    return h


def _rabi_h(t):
    h = np.zeros((DIM, DIM), dtype=complex)
    h[0, 0], h[3, 3] = 0.37, -0.2
    h[0, 3], h[3, 0] = 0.6 + 0.1j, 0.6 - 0.1j
    return h


# the four qubit inputs of a gate's channel reconstruction
_QUBIT_INPUTS = [basis_state(0), basis_state(1),
                 (basis_state(0) + basis_state(1)) / math.sqrt(2),
                 (basis_state(0) + 1j * basis_state(1)) / math.sqrt(2)]


class TestStacks:
    def test_schrodinger_stack_matches_single_solves(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        h_of_t = lambda t: model.build_h_y(t, ps, params)
        spec = PropagationSpec(-950.0, 950.0, max_step=2.0, record_stride=100.0)
        stack = propagate.schrodinger_propagate(h_of_t, np.stack(_QUBIT_INPUTS, axis=1), spec)
        assert stack.states.shape == (len(stack.times), DIM, 4)
        for k, psi in enumerate(_QUBIT_INPUTS):
            single = propagate.schrodinger_propagate(h_of_t, psi, spec)
            np.testing.assert_array_equal(single.times, stack.times)
            assert np.max(np.abs(stack.states[:, :, k] - single.states)) < 1e-9

    def test_lindblad_stack_matches_single_solves(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        h_of_t = lambda t: model.build_h_y(t, ps, params)
        chans = lindblad_channels(params)
        assert len(chans) == 8
        spec = PropagationSpec(-950.0, 950.0, max_step=2.0, record_stride=100.0)
        inputs = [density_from_state(psi) for psi in _QUBIT_INPUTS]
        stack = propagate.lindblad_propagate(h_of_t, chans, np.stack(inputs), spec)
        assert stack.states.shape == (len(stack.times), 4, DIM, DIM)
        for k, rho in enumerate(inputs):
            single = propagate.lindblad_propagate(h_of_t, chans, rho, spec)
            assert np.max(np.abs(stack.states[:, k] - single.states)) < 1e-9

    def test_unnormalized_member_rejected(self):
        stack = np.stack([basis_state(0), 0.5 * basis_state(1), basis_state(2)], axis=1)
        with pytest.raises(ValueError, match="normalized"):
            propagate.schrodinger_propagate(_zero_h, stack, PropagationSpec(0.0, 1.0))

    def test_meta_covers_every_member(self):
        # one drifting member between two copies of |a>, which none of the
        # generators below moves: only a reduction over the stack sees it
        spec = PropagationSpec(0.0, 100.0)
        quiet = basis_state(2)
        leaky = propagate.schrodinger_propagate(_leaky_h, basis_state(4), spec).meta
        stack = propagate.schrodinger_propagate(
            _leaky_h, np.stack([quiet, basis_state(4), quiet], axis=1), spec).meta
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
        decay = [model.LindbladChannel(0.05, 3, 0)]
        (q, single), stack = lindblad_meta(_rabi_h, density_from_state(basis_state(0)), decay)
        assert q["trace_drift"] == 0.0 and single["trace_drift"] > 0.0
        assert 0.0 < stack["trace_drift"] < 1e-12

        (q, single), stack = lindblad_meta(_zero_h, np.diag([1.0 + 1e-9, -1e-9, 0, 0, 0]), [])
        assert q["min_eigenvalue"] == 0.0
        assert single["min_eigenvalue"] == pytest.approx(-1e-9, rel=1e-6)
        assert stack["min_eigenvalue"] == single["min_eigenvalue"]


class TestOracle:
    def test_identity_action(self):
        psi = propagate.oracle_propagate(_zero_h, basis_state(2), 0.5, 0.0, 50.0)
        np.testing.assert_allclose(psi, basis_state(2), atol=1e-14)

    def test_agreement_with_adaptive_on_z(self, params):
        ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.4)
        h_of_t = lambda t: model.build_h_z(t, ps, params)
        lo, hi = -1450.0, 800.0
        spec = PropagationSpec(lo, hi, rel_tol=1e-10, max_step=2.0)
        adaptive = propagate.schrodinger_propagate(h_of_t, basis_state(1), spec).final()
        oracle = propagate.oracle_propagate(h_of_t, basis_state(1), 100.0 / 2000.0, lo, hi)
        deficit = 1.0 - abs(np.vdot(oracle, adaptive)) ** 2
        assert deficit < 1e-6

    def test_second_order_convergence(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        h_of_t = lambda t: model.build_h_y(t, ps, params)
        lo, hi = -450.0, 450.0
        ref = propagate.oracle_propagate(h_of_t, basis_state(1), 0.05, lo, hi)
        err = []
        for dt in (2.0, 1.0):
            psi = propagate.oracle_propagate(h_of_t, basis_state(1), dt, lo, hi)
            err.append(np.linalg.norm(psi - ref))
        assert err[1] == pytest.approx(err[0] / 4.0, rel=0.2)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            propagate.oracle_propagate(_zero_h, basis_state(0), 0.0, 0.0, 1.0)
