import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853

from holospin import model, propagate, pulses, scenarios
from holospin.model import ModelParams, lindblad_channels
from holospin.propagate import PropagationSpec
from holospin.qcore import DIM, basis_state, dense_expm, density_from_state
from oracles import coordinate_liouvillian, coordinates, dop853_reference, liouvillian


_zero_h = model.Drive(np.zeros((DIM, DIM), dtype=complex), ())


class TestSpecValidation:
    def test_window(self):
        # both ends finite and t_end > t_start; a NaN end would otherwise
        # give a solve of no steps that returns its input
        for t_start, t_end in [(-950.0, math.nan), (math.nan, 0.0), (-math.inf, 0.0),
                               (0.0, math.inf), (1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="window"):
                PropagationSpec(t_start, t_end)

    def test_tolerances(self):
        with pytest.raises(ValueError):
            PropagationSpec(0.0, 1.0, rel_tol=0.5)

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_abs_tol_must_be_positive_and_finite(self, abs_tol):
        with pytest.raises(ValueError, match="abs_tol"):
            PropagationSpec(0.0, 1.0, abs_tol=abs_tol)

    @pytest.mark.parametrize("stride", [-1.0, math.nan, math.inf])
    def test_record_stride_must_be_non_negative_and_finite(self, stride):
        with pytest.raises(ValueError, match="record_stride"):
            PropagationSpec(0.0, 1.0, record_stride=stride)

    def test_sample_times(self):
        spec = PropagationSpec(0.0, 10.0, record_stride=3.0)
        np.testing.assert_allclose(spec.sample_times(), [0, 3, 6, 9, 10])
        spec = PropagationSpec(0.0, 10.0)
        np.testing.assert_allclose(spec.sample_times(), [0, 10])

    @pytest.mark.parametrize("t_start, t_end, stride", [(1.0, 1.3, 0.1), (1120.8, 3010.8, 8.4)])
    def test_sample_times_end_exactly_at_t_end(self, t_start, t_end, stride):
        # from these starts arange rounds a last point up to or past t_end
        times = PropagationSpec(t_start, t_end, record_stride=stride).sample_times()
        assert times[0] == t_start and times[-1] == t_end
        assert np.all(np.diff(times) > 0.0) and times[-2] < t_end


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
        ps = _lone_pulse_set()
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

    def test_norm_drift_bound(self, params):
        # DOP853's steps, accepted and rejected, as the solve counts them
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        lo, hi = ps.window()
        spec = PropagationSpec(lo, hi, rel_tol=1e-10)
        traj = propagate.schrodinger_propagate(model.drive_y(ps, params), basis_state(0), spec)
        bound = 10.0 * spec.rel_tol * math.sqrt(traj.meta["n_steps"])
        assert traj.meta["norm_drift"] <= bound

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            propagate.schrodinger_propagate(_zero_h, 0.5 * basis_state(0),
                                            PropagationSpec(0.0, 1.0))

    # the check comes before any arithmetic on the state, so it warns of nothing
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_a_non_finite_state_before_the_loop(self, entry, monkeypatch):
        monkeypatch.setattr(propagate, "_dop853", _unreachable_loop)
        psi0 = basis_state(0)
        psi0[2] = entry
        with pytest.raises(ValueError, match="finite and normalized"):
            propagate.schrodinger_propagate(_zero_h, psi0, PropagationSpec(0.0, 1.0))

    @pytest.mark.parametrize("shape", [(0, DIM), (DIM - 1,), (2, 2, DIM)])
    def test_rejects_a_bad_shape_before_the_loop(self, shape, monkeypatch):
        monkeypatch.setattr(propagate, "_dop853", _unreachable_loop)
        psi0 = np.zeros(shape, dtype=complex)
        psi0[..., :1] = 1.0
        with pytest.raises(ValueError,
                           match=re.escape(f"(5,) or (k, 5) with k >= 1, not {shape}")):
            propagate.schrodinger_propagate(_zero_h, psi0, PropagationSpec(0.0, 1.0))

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
        # rebuilt from real coordinates, each snapshot is exactly Hermitian
        np.testing.assert_array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("skew, accepted", [(1e-13, True), (1e-11, False)])
    def test_density_must_be_hermitian(self, skew, accepted):
        # real coordinates keep only the Hermitian part: a rounding-level
        # anti-Hermitian part passes, a larger one raises
        rho0 = density_from_state(basis_state(0))
        rho0[0, 1] = skew
        solve = lambda: propagate.lindblad_propagate(_zero_h, [], rho0, PropagationSpec(0.0, 1.0))
        if accepted:
            solve()
        else:
            with pytest.raises(ValueError, match="anti-Hermitian part 5.000e-12"):
                solve()

    # the check comes before any arithmetic on the density, so it warns of nothing
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_a_non_finite_density_before_the_loop(self, entry, monkeypatch):
        monkeypatch.setattr(propagate, "_dop853", _unreachable_loop)
        rho0 = density_from_state(basis_state(0))
        rho0[1, 1] = entry
        with pytest.raises(ValueError, match="not finite and Hermitian"):
            propagate.lindblad_propagate(_zero_h, [], rho0, PropagationSpec(0.0, 1.0))

    @pytest.mark.parametrize("solve", ["lindblad", "semigroup"])
    @pytest.mark.parametrize("shape", [(0, DIM, DIM), (DIM - 1, DIM - 1), (DIM,)])
    def test_rejects_a_bad_shape_before_the_loop(self, shape, solve, monkeypatch):
        monkeypatch.setattr(propagate, "_dop853", _unreachable_loop)
        rho0 = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError,
                           match=re.escape(f"(5, 5) or (k, 5, 5) with k >= 1, not {shape}")):
            if solve == "lindblad":
                propagate.lindblad_propagate(_zero_h, [], rho0, PropagationSpec(0.0, 1.0))
            else:
                propagate.semigroup_propagate(_zero_h, [], rho0, 1.0, 0.0)

    def test_coupling_must_be_hermitian(self):
        # checked on the couplings themselves, even under a zero envelope
        one_way = np.zeros((DIM, DIM), dtype=complex)
        one_way[0, 3] = 0.1
        drive = model.Drive(np.zeros((DIM, DIM), dtype=complex),
                            ((pulses.Envelope(0.0), one_way),))
        rho0 = density_from_state(basis_state(0))
        with pytest.raises(ValueError, match="Hermitian couplings"):
            propagate.lindblad_propagate(drive, [], rho0, PropagationSpec(0.0, 1.0))
        with pytest.raises(ValueError, match="Hermitian couplings"):
            propagate.semigroup_propagate(drive, [], rho0, 1.0, 0.0)

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

    @pytest.mark.parametrize("layout", ["reversed", "strided"])
    def test_non_contiguous_stack_matches_its_copy(self, layout, params):
        # state rows are built from a contiguous float view of the input
        stack = np.stack(_QUBIT_INPUTS)
        if layout == "reversed":
            stack = stack[:, ::-1]
        else:
            wide = np.zeros((len(stack), 2 * DIM), dtype=complex)
            wide[:, ::2] = stack
            stack = wide[:, ::2]
        assert not stack.flags.c_contiguous
        drive = model.drive_y(pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0), params)
        spec = PropagationSpec(-950.0, 950.0, record_stride=100.0)
        strided = propagate.schrodinger_propagate(drive, stack, spec)
        copied = propagate.schrodinger_propagate(drive, stack.copy(), spec)
        np.testing.assert_array_equal(strided.states, copied.states)

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

        # real coordinates keep only the Hermitian part of a drive, so the
        # open solvers refuse a non-Hermitian one instead
        with pytest.raises(ValueError, match="Hermitian"):
            lindblad_meta(_leaky_h, density_from_state(basis_state(1)), [])

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


class TestSemigroup:
    """The exact solve of a constant drive, against one exponential of the
    Liouvillian built from the matrix units (``oracles.liouvillian``)."""

    @pytest.mark.parametrize("stride", [0.0, 300.0, 250.0])
    def test_snapshots_are_the_exact_semigroup(self, stride, params):
        # 1000 ps in strides of 300 ps ends on a partial stride of 100 ps;
        # 250 ps divides it; 0 stores the end points only.  Measured at most
        # 3.9e-15
        ps = pulses.PulseSet(pump=pulses.Envelope(0.02), stokes=pulses.OFF,
                             driving=pulses.OFF)
        jumps = lindblad_channels(params)
        rho0 = density_from_state(basis_state(0))
        drive = model.drive_y(ps, params)
        traj, _ = propagate.semigroup_propagate(drive, jumps, rho0, 1000.0, stride)
        np.testing.assert_array_equal(
            traj.times, PropagationSpec(0.0, 1000.0, record_stride=stride).sample_times())
        assert traj.meta["n_steps"] == len(traj.times) - 1
        generator = liouvillian(lambda t: model.build_h_y(t, ps, params), jumps)(0.0)
        for t, rho in zip(traj.times, traj.states):
            exact = (dense_expm(t * generator) @ rho0.ravel()).reshape(DIM, DIM)
            assert np.max(np.abs(rho - exact)) < 1e-13

    def test_integral_is_the_same_at_every_stride(self, params):
        # 1000 ps in strides of 300 ps ends on a partial stride of 100 ps.
        # The integral's entries reach 430 ps.  Measured: the strided
        # integral within 5.8e-13 of the stride-0 one (bound 8.6x that);
        # composite Simpson at 0.1 ps on the exact semigroup within 4.8e-11
        # of both (bound 10x that).  Simpson's own error there is about
        # 2e-11 (3.1e-10 at 0.2 ps, fourth order); below 0.1 ps rounding
        # over the steps grows the difference again
        ps = pulses.PulseSet(pump=pulses.Envelope(0.02), stokes=pulses.OFF,
                             driving=pulses.OFF)
        jumps = lindblad_channels(params)
        rho0 = density_from_state(basis_state(0))
        drive = model.drive_y(ps, params)
        _, strided = propagate.semigroup_propagate(drive, jumps, rho0, 1000.0, 300.0)
        _, whole = propagate.semigroup_propagate(drive, jumps, rho0, 1000.0, 0.0)
        assert np.max(np.abs(strided - whole)) < 5e-12
        h = 0.1
        step = dense_expm(h * liouvillian(lambda t: model.build_h_y(t, ps, params), jumps)(0.0))
        rho, values = rho0.ravel(), []
        for _ in range(10001):
            values.append(rho)
            rho = step @ rho
        values = np.array(values)
        simpson = h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum(axis=0)
                             + 2.0 * values[2:-1:2].sum(axis=0))
        for integral in (strided, whole):
            assert np.max(np.abs(integral - simpson.reshape(DIM, DIM))) < 5e-10

    def test_rejects_a_time_dependent_drive(self, params):
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        with pytest.raises(ValueError, match="constant"):
            propagate.semigroup_propagate(model.drive_y(ps, params), [],
                                          density_from_state(basis_state(0)), 10.0, 0.0)

    @pytest.mark.parametrize("duration, stride, calls", [
        (100.0, 300.0, 1), (100.0, 0.0, 1), (1000.0, 250.0, 1), (1000.0, 300.0, 2)])
    def test_one_exponential_per_distinct_interval(self, duration, stride, calls, params,
                                                   monkeypatch):
        # the whole-stride exponential is built only when a whole stride
        # fits; a stride longer than the window needs only the last one
        made = []
        monkeypatch.setattr(propagate, "dense_expm",
                            lambda m: made.append(m) or dense_expm(m))
        ps = pulses.PulseSet(pump=pulses.Envelope(0.02), stokes=pulses.OFF,
                             driving=pulses.OFF)
        traj, _ = propagate.semigroup_propagate(model.drive_y(ps, params),
                                                lindblad_channels(params),
                                                density_from_state(basis_state(0)), duration,
                                                stride)
        assert traj.times[-1] == duration
        assert len(made) == calls


def _lone_pulse_set():
    """A 10 ps pump pulse at 5000 ps, every other field off."""
    pump = pulses.Envelope(0.05, (5000.0,), 10.0)
    return pulses.PulseSet(pump=pump, stokes=pulses.OFF, driving=pulses.OFF)


def _reference_case(case, params):
    """(pulse set, builder, template, spec, stack, open) of one solve that
    the DOP853 loop is checked against scipy's solve_ivp on."""
    if case == "lone_pulse":
        return (_lone_pulse_set(), model.build_h_y, model.drive_y,
                PropagationSpec(0.0, 6000.0, rel_tol=1e-10), basis_state(0), False)
    variant, mode = case.rsplit("_", 1)
    first, _ = scenarios._forward(variant, scenarios.default_gate_run(variant))
    build, template = {"y_closed_loop": (model.build_h_y, model.drive_y),
                       "z_fractional": (model.build_h_z, model.drive_z)}[variant]
    stack = scenarios._INPUT_DENSITIES if mode == "open" else scenarios._INPUT_STACK
    spec = PropagationSpec(*first.window(), abs_tol=scenarios.GATE_ABS_TOL)
    return first, build, template, spec, stack, mode == "open"


class TestAgainstSolveIvp:
    """The hand-written DOP853 loop keeps scipy's tableau, initial step,
    error norm and step control, so on a solve without snapshots it takes
    solve_ivp's steps; every solve runs on real rows, against a reference on
    the complex states or vec(rho).  The reference builds its right-hand
    side from the element-wise H(t) (and ``oracles.liouvillian``), not from
    a Drive."""

    @pytest.mark.parametrize("case", ["y_closed_loop_open", "y_closed_loop_coherent",
                                      "z_fractional_open", "z_fractional_coherent",
                                      "lone_pulse"])
    def test_loop_takes_solve_ivps_steps(self, case, params):
        # measured: equal step counts; the loop sums each stage's argument
        # with y inside the tableau product, not after it as solve_ivp does,
        # so the finals differ by rounding: at most 1.1e-14 on the open and
        # 1.3e-14 on the coherent gate segments, and 3.1e-14 on the 1,236
        # steps of the lone pulse
        ps, build, template, spec, stack, is_open = _reference_case(case, params)
        drive = template(ps, params)
        if is_open:
            jumps = lindblad_channels(params)
            traj = propagate.lindblad_propagate(drive, jumps, stack, spec)
            lindbladian = liouvillian(lambda t: build(t, ps, params), jumps)
            generator = lambda t: lindbladian(t).T
        else:
            traj = propagate.schrodinger_propagate(drive, stack, spec)
            generator = lambda t: (-1j * build(t, ps, params)).T
        max_step = 0.5 * min(f.width for f, _ in drive.terms)
        final, steps, accepted = dop853_reference(generator, stack, spec.t_start, spec.t_end,
                                                  spec.rel_tol, spec.abs_tol, max_step)
        assert traj.meta["n_steps"] == steps
        # eleven stages per step tried, and the end derivative of each accepted one
        assert traj.meta["n_rhs_evals"] == 2 + 11 * steps + accepted
        assert np.max(np.abs(traj.final() - final)) < 1e-13

    def test_step_below_min_step_raises(self):
        # a coupling that jumps from 0 to 1e6 rad/ps at t = 1 ps: no step
        # across the jump meets the tolerance, so the step shrinks below
        # ten units in the last place of t
        h = np.zeros((DIM, DIM), dtype=complex)
        h[0, 3] = h[3, 0] = -1.0
        part = propagate._pair_form((-1j * h).T)
        generators = _stepwise(lambda times: np.where(times < 1.0, 0.0, 1e6), part)
        with pytest.raises(ValueError, match=r"stiffness/tolerance failure in the state "
                                             r"solve near t = 1 ps"):
            propagate._dop853(generators, _state_row(basis_state(0)), PropagationSpec(0.0, 2.0),
                              math.inf, "state", propagate._STATE_MEANS)

    def test_nan_generator_raises(self):
        # a NaN generator makes the initial step NaN, which no step-size
        # test may let through; more generator calls than any step
        # sequence here could make mean the loop did not stop
        calls = []
        nan_generators = _stepwise(lambda times: np.full_like(times, math.nan), np.eye(2 * DIM))

        def generators(times, out):
            calls.append(len(times))
            assert len(calls) < 10_000, "the loop did not stop on a NaN step"
            return nan_generators(times, out)

        with pytest.raises(ValueError, match="stiffness/tolerance failure in the state solve"):
            propagate._dop853(generators, _state_row(basis_state(0)), PropagationSpec(0.0, 2.0),
                              math.inf, "state", propagate._STATE_MEANS)


def _unreachable_loop(*args):
    raise AssertionError("the input reached the DOP853 loop")


def _state_row(psi: np.ndarray) -> np.ndarray:
    """A state's real row sqrt2 (Re psi_i, Im psi_i)."""
    return math.sqrt(2.0) * psi.view(float)


def _stepwise(envelope, part):
    """Generators (times, out) -> envelope(times) part, written into out."""
    def generators(times, out):
        gens = np.multiply.outer(envelope(times), part)
        out[...] = gens.reshape(out.shape)
        return gens
    return generators


class TestComponentGenerators:
    """The generators fold each envelope's amplitude into its coupling's
    part and evaluate every Gaussian component with one exp; at any time
    they are the lift of the drive's H(t) from the scalar envelope calls."""

    def test_match_the_scalar_envelope_calls(self):
        couplings = [model._coupling(ground, amp)
                     for ground, amp in ((0, 1.0), (1, np.exp(-0.7j)), (2, 1.0))]
        envelopes = [pulses.Envelope(0.4, (30.0,), 100.0),
                     pulses.Envelope(0.5, (-650.0, 0.0), 100.0),
                     pulses.Envelope(0.3)]
        h0 = np.diag([0.0, 0.0, 0.0, 0.2, -0.3]).astype(complex)
        drive = model.Drive(h0, tuple(zip(envelopes, couplings)))
        lift = lambda h: propagate._pair_form((-1j * h).T)
        generators = propagate._generators(drive, lift, 0.0)
        times = np.linspace(-1200.0, 900.0, 211)
        out = np.empty((len(times), (2 * DIM) ** 2))
        batch = generators(times, out)
        assert batch.base is out
        for t, g in zip(times.tolist(), batch):
            np.testing.assert_allclose(g, lift(drive(t)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("open_system", [False, True])
    def test_one_closure_serves_any_number_of_times_in_turn(self, open_system, params):
        # the closure reuses its buffers between calls; a call at one length
        # must leave nothing behind for a call at another
        couplings = [model._coupling(ground, amp)
                     for ground, amp in ((0, 1.0), (1, np.exp(0.4j)), (2, 1.0))]
        envelopes = [pulses.Envelope(0.6, (-80.0,), 120.0),
                     pulses.Envelope(0.3, (-500.0, 50.0), 90.0),
                     pulses.Envelope(0.2)]
        drive = model.Drive(np.diag([0.0, 0.0, 0.0, 0.1, -0.4]).astype(complex),
                            tuple(zip(envelopes, couplings)))
        if open_system:
            lift, constant = propagate._open_parts(drive, lindblad_channels(params))
        else:
            lift, constant = (lambda h: propagate._pair_form((-1j * h).T)), 0.0
        generators = propagate._generators(drive, lift, constant)
        width = len(lift(drive.h0))
        for n, start in ((1, -37.0), (11, -900.0), (211, -1100.0), (1, 412.5)):
            times = np.linspace(start, start + 2000.0, n)
            batch = generators(times, np.empty((n, width * width)))
            assert batch.shape == (n, width, width)
            for t, g in zip(times.tolist(), batch):
                np.testing.assert_allclose(g, lift(drive(t)) + constant, rtol=0, atol=1e-15)

    def test_unknown_envelope_type_is_rejected_by_name(self):
        class Jump:
            amplitude, centers, width = 1.0, (), math.inf

            def __call__(self, t):
                return 1.0

        h = np.zeros((DIM, DIM), dtype=complex)
        h[0, 3] = h[3, 0] = -1.0
        drive = model.Drive(np.zeros((DIM, DIM), dtype=complex), ((Jump(), h),))
        with pytest.raises(ValueError, match="not Jump"):
            propagate.schrodinger_propagate(drive, basis_state(0), PropagationSpec(0.0, 2.0))


def _capture_generators(monkeypatch):
    """Replace the DOP853 loop by a stand-in that keeps the generators it is
    given."""
    captured = []

    def loop(generators, y0, spec, max_step, kind, pair_means):
        captured.append(generators)
        return propagate.Trajectory(times=np.array([spec.t_start, spec.t_end]),
                                    states=np.stack([y0, y0]))
    monkeypatch.setattr(propagate, "_dop853", loop)
    return captured


class TestDriveTemplates:
    """A Drive is stacked once per solve; the generators the loop evaluates
    at a step's stage times must give the textbook right-hand side built
    from the element-wise H(t)."""

    @pytest.mark.parametrize("make_pulses,template,build", [
        (lambda: replace(pulses.make_y_pulseset(0.5, 0.4, 0.3, 150.0, 100.0),
                         stokes_phase=-0.9), model.drive_y, model.build_h_y),
        (lambda: pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.7),
         model.drive_z, model.build_h_z)])
    def test_stage_generators_match_builders(self, make_pulses, template, build,
                                             params, rng, monkeypatch):
        ps = make_pulses()
        jumps = lindblad_channels(params)
        captured = _capture_generators(monkeypatch)
        spec = PropagationSpec(-1000.0, 1000.0)
        psi = np.stack(_QUBIT_INPUTS)
        rho = np.stack([density_from_state(p) for p in _QUBIT_INPUTS])
        propagate.schrodinger_propagate(template(ps, params), psi, spec)
        propagate.lindblad_propagate(template(ps, params), jumps, rho, spec)
        schrodinger_generators, lindblad_generators = captured
        lindbladian = coordinate_liouvillian(lambda t: build(t, ps, params), jumps)

        def schrodinger(t, y):
            return np.stack([-1j * build(t, ps, params) @ row for row in y])

        def lindblad(t, y):
            return (lindbladian(t) @ y.T).T

        # the twelve stage times t + C h of a step from t of size h
        for t, h in zip(rng.uniform(-1000.0, 950.0, size=5), rng.uniform(1.0, 50.0, size=5)):
            times = t + h * DOP853.C
            schrodinger_batch = schrodinger_generators(times, np.empty((12, (2 * DIM) ** 2)))
            lindblad_batch = lindblad_generators(times, np.empty((12, (DIM * DIM) ** 2)))
            assert len(schrodinger_batch) == len(lindblad_batch) == len(times) == 12
            for time, g_psi, g_rho in zip(times, schrodinger_batch, lindblad_batch):
                # the coordinate rows of random complex states, and the
                # states rebuilt from their image
                y = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
                image = (math.sqrt(2.0) * y.view(float)) @ g_psi
                np.testing.assert_allclose(image.view(complex) / math.sqrt(2.0),
                                           schrodinger(time, y), rtol=0, atol=1e-14)
                # the coordinates of random Hermitian matrices
                x = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
                r = coordinates(x + x.conj().swapaxes(-1, -2))
                np.testing.assert_allclose(r @ g_rho, lindblad(time, r), rtol=0, atol=1e-14)

    def test_generators_are_real(self, params, monkeypatch):
        ps = pulses.make_y_pulseset(0.5, 0.4, 0.3, 150.0, 100.0)
        captured = _capture_generators(monkeypatch)
        spec = PropagationSpec(-1000.0, 1000.0)
        propagate.schrodinger_propagate(model.drive_y(ps, params), basis_state(0), spec)
        propagate.lindblad_propagate(model.drive_y(ps, params), lindblad_channels(params),
                                     density_from_state(basis_state(0)), spec)
        for generators, width in zip(captured, (2 * DIM, DIM * DIM)):
            batch = generators(np.linspace(-300.0, 300.0, 12), np.empty((12, width * width)))
            assert batch.dtype == np.float64 and batch.shape == (12, width, width)
        # the exact solve's one exponential, of its block generator
        made = []
        monkeypatch.setattr(propagate, "dense_expm", lambda m: made.append(m) or dense_expm(m))
        constant = pulses.PulseSet(pump=pulses.Envelope(0.02), stokes=pulses.OFF,
                                   driving=pulses.OFF)
        propagate.semigroup_propagate(model.drive_y(constant, params), lindblad_channels(params),
                                      density_from_state(basis_state(0)), 10.0, 0.0)
        assert [m.dtype for m in made] == [np.float64]

    def test_paired_moduli_keep_the_complex_error_norm(self, rng):
        # scaling each coordinate by the modulus of its entry gives the RMS
        # norm that the complex entries, scaled by their moduli, give: for
        # the rows of states and for the coordinates of Hermitian matrices
        def state():
            return rng.normal(size=(4, DIM)) + 1j * rng.normal(size=(4, DIM))

        def hermitian():
            x = rng.normal(size=(4, DIM, DIM)) + 1j * rng.normal(size=(4, DIM, DIM))
            return x + x.conj().swapaxes(-1, -2)

        layouts = [(state, lambda psi: math.sqrt(2.0) * psi.view(float), propagate._STATE_MEANS),
                   (hermitian, coordinates, propagate._DENSITY_MEANS)]
        for entries, rows, means in layouts:
            for _ in range(20):
                y, error = entries(), 1e-9 * entries()
                complex_rms = propagate._rms(error / (1e-12 + np.abs(y) * 1e-10))
                moduli = np.sqrt((rows(y) * rows(y)) @ means)
                real_rms = propagate._rms(rows(error) / (1e-12 + moduli * 1e-10))
                assert real_rms == pytest.approx(complex_rms, rel=1e-15)

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
        # a step that is not positive, and a window that is empty or runs
        # backwards, which the oracle would otherwise integrate backwards
        for dt, t_start, t_end in [(0.0, 0.0, 1.0), (0.5, 10.0, 0.0), (0.5, 1.0, 1.0)]:
            with pytest.raises(ValueError):
                propagate.oracle_propagate(_zero_h, basis_state(0), dt, t_start, t_end)

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
