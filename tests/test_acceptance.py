"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Two checks are known to fail for physical reasons and are kept at their
stated tolerances anyway (an honest red is preferred over a loosened bound):

* criterion 5a: optical pumping at drive = gamma cannot reach 99.9%
  preparation fidelity by 8 ns.  The pumped manifold can only empty at the
  per-channel recombination rate, so its population is bounded below by
  0.5*exp(-gamma*t) ~ 3.4e-3 at 8 ns regardless of drive strength; the
  simulated fidelity at the stated drive is ~0.93.  The target is reached
  at ~23.5 ns (see criterion 5b, which verifies the converged value).

* criterion 7z: the fractional-STIRAP phase gate at pulse width 100 ps
  violates its own adiabatic premise (the mixing-angle crossover at the
  plateau delay happens where the fields are ~1e-5 of peak, and the label
  rotation outruns the dark-bright splitting by a factor ~25).  Half the
  driven population is stranded in the electron levels and recombines, so
  the full open-system fidelity lands near 0.73, far from the 99.99%
  dark-subspace value (which the same code reproduces to 5 digits as
  fidelity_dark_subspace).  Stretching the pulse width restores the
  adiabatic limit for the coherent dynamics (criterion 6) but cannot
  rescue the driven-population recombination loss.
"""

import math

import numpy as np
from holospin import cli, holonomy, propagate, pulses, scenarios
from holospin.model import ModelParams, build_h_y, drive_z, lindblad_channels
from holospin.propagate import PropagationSpec
from holospin.qcore import IDX_ONE, basis_state, density_from_state
from oracles import predicted_final_state_z

PARAMS = ModelParams()


def _line(criterion: str, passed: bool, detail: str) -> str:
    verdict = "PASS" if passed else "FAIL"
    message = f"[acceptance] {criterion}: {verdict} - {detail}"
    print(message)
    return message


def test_criterion_01_dark_state_nullity():
    y_set = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
    z_set = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.6)
    worst = cli.dark_state_nullity(y_set, z_set, PARAMS, np.random.default_rng(11), 500)
    ok = worst < 1e-10
    msg = _line("criterion 01 dark-state nullity", ok,
                f"worst residual ||H d|| / (1 + max|H|) {worst:.3e} (< 1e-10) "
                f"over 1000 samples")
    assert ok, msg


def test_criterion_02_connection_oracle():
    worst = cli.connection_deviation(np.random.default_rng(22), 100)
    ok = worst < 1e-8
    msg = _line("criterion 02 connection oracle", ok,
                f"worst Richardson-extrapolated deviation {worst:.3e} (< 1e-8)")
    assert ok, msg


def test_criterion_03_angle_y_curve():
    ratios = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]
    angles, _ = scenarios.sweep_angle("y_closed_loop",
                                      scenarios.default_gate_run("y_closed_loop"), ratios)
    zero_ok = angles[0] == 0.0
    monotone_ok = bool(np.all(np.diff(angles) >= -1e-12))
    plateau = angles[np.asarray(ratios) >= 3.0]
    plateau_ok = bool(np.all(np.abs(plateau - math.pi / 2) < 1e-3))
    ok = zero_ok and monotone_ok and plateau_ok
    msg = _line("criterion 03 y-angle curve", ok,
                f"angle(0)={angles[0]:.1e}, monotone={monotone_ok}, "
                f"plateau max dev {float(np.max(np.abs(plateau - math.pi / 2))):.2e} rad")
    assert ok, msg


def test_criterion_04_phase_z_curve():
    run = scenarios.default_gate_run("z_fractional", amp=0.5, model=PARAMS)
    angles, _ = scenarios.sweep_angle("z_fractional", run, [0.0, 6.5])
    zero_ok = angles[0] == 0.0
    dev = abs(angles[1] - math.pi / 4)
    plateau_ok = dev <= 0.01 * (math.pi / 4)
    ok = zero_ok and plateau_ok
    msg = _line("criterion 04 z-phase curve", ok,
                f"phase(0)={angles[0]:.1e}, phase(6.5)={angles[1]:.6f} "
                f"misses pi/4 by {dev / (math.pi / 4) * 100:.2f}% (<= 1%)")
    assert ok, msg


def _initialization_curve(duration=40000.0):
    traj, fid = scenarios.run_initialization("sigma_minus", np.diag([0.5, 0.5]), PARAMS.gamma,
                                             duration, PARAMS, record_stride=500.0)
    return traj, fid


def test_criterion_05a_initialization_by_8ns():
    traj, fid = _initialization_curve()
    i8 = int(np.searchsorted(traj.times, 8000.0))
    fid_8ns = float(fid[i8])
    ok = fid_8ns >= 0.999
    crossing = traj.times[int(np.searchsorted(fid, 0.999))] if np.max(fid) >= 0.999 else float("inf")
    msg = _line("criterion 05a initialization fidelity at 8 ns", ok,
                f"fidelity(8 ns) = {fid_8ns:.6f} (required >= 0.999); the pumped "
                f"manifold empties at most at rate gamma, bounding it by "
                f"0.5*exp(-gamma t) = {0.5 * math.exp(-PARAMS.gamma * 8000.0):.2e} at 8 ns; "
                f"0.999 is first reached near t = {crossing:.0f} ps")
    assert ok, msg


def test_criterion_05b_initialization_converged_band():
    traj, fid = _initialization_curve()
    i32 = int(np.searchsorted(traj.times, 32000.0))
    converged = abs(fid[-1] - fid[i32]) < 1e-4
    band = abs(fid[-1] - 0.9995) <= 1e-3
    ok = bool(converged and band)
    msg = _line("criterion 05b initialization converged fidelity", ok,
                f"fidelity({traj.times[-1] / 1000:.0f} ns) = {fid[-1]:.6f}, within 0.1 "
                f"percentage points of 99.95% (converged: {converged})")
    assert ok, msg


def test_criterion_06_z_holonomy_vs_propagation():
    # Stretched pulse width restores the adiabatic premise while keeping
    # every delay/amplitude ratio and the quadrature phase; delay ratio 8
    # puts the accumulated phase within 3e-7 rad of pi/4.
    tau = 3e4
    tau0 = 8.0 * tau
    worst = 1.0
    angles = {}
    for phase in (0.0, math.pi / 4, math.pi / 2, math.pi):
        ps = pulses.make_z_pulseset(0.5, 0.5, tau0, tau, phase)
        gamma_f = holonomy.geometric_phase_z(ps, PARAMS).angle
        angles[phase] = gamma_f
        spec = PropagationSpec(-(tau0 + 8 * tau), 8 * tau, rel_tol=1e-8)
        traj = propagate.schrodinger_propagate(drive_z(ps, PARAMS), basis_state(IDX_ONE), spec)
        prediction = predicted_final_state_z(math.pi / 4, phase)  # e^{i phi}|1>
        overlap = float(abs(np.vdot(prediction, traj.final())) ** 2)
        worst = min(worst, overlap)
    ok = worst >= 0.999
    msg = _line("criterion 06 z holonomy vs propagation", ok,
                f"worst overlap with the predicted e^(i phi)|1> is {worst:.6f} over "
                f"phases (0, pi/4, pi/2, pi); accumulated phase {angles[0.0]:.8f} "
                f"(pi/4 = {math.pi / 4:.8f}); stretched width tau = {tau:.0f} ps")
    assert ok, msg


def test_criterion_07_gate_table_y_row():
    _, report = scenarios.simulate_gate("y_closed_loop", with_decoherence=True)
    dev = abs(report.fidelity - 0.9996)
    ok = dev <= 0.005
    msg = _line("criterion 07 gate table, y rotation", ok,
                f"simulated fidelity {report.fidelity:.6f} vs 0.9996 +- 0.005 "
                f"(dark-subspace prediction {report.fidelity_dark_subspace:.6f}, "
                f"closed-loop variant, forward delay 1.5 tau, return delay 0.7 tau)")
    assert ok, msg


def test_criterion_07_gate_table_z_row():
    _, report = scenarios.simulate_gate("z_fractional", with_decoherence=True)
    dev = abs(report.fidelity - 0.9999)
    ok = dev <= 0.005
    msg = _line("criterion 07 gate table, z rotation", ok,
                f"simulated fidelity {report.fidelity:.6f} vs 0.9999 +- 0.005; "
                f"the dark-subspace prediction gives {report.fidelity_dark_subspace:.6f}, "
                f"but the stated pulse width breaks the adiabatic premise and the "
                f"driven population recombines (final leakage {report.leakage_final:.3f}); "
                f"see the module docstring for the mechanism")
    assert ok, msg


def test_criterion_07_gate_table_x_row():
    _, report = scenarios.simulate_gate("x_composite", with_decoherence=True)
    dev = abs(report.fidelity - 0.9994)
    ok = dev <= 0.005
    msg = _line("criterion 07 gate table, composite x rotation", ok,
                f"simulated fidelity {report.fidelity:.6f} vs 0.9994 +- 0.005 "
                f"(two quarter-turn loops around a frame phase shift; "
                f"dark-subspace prediction {report.fidelity_dark_subspace:.6f})")
    assert ok, msg


def test_criterion_08_propagator_cross_oracle():
    # the adaptive solves take the drive templates, the oracle builds H
    # element-wise: two independent constructions of the same H(t).  The
    # oracle's coarse step is 0.5 ps, as in validate's row.
    worst_deviation = 0.0

    # y closed loop, both segments
    run = scenarios.default_gate_run("y_closed_loop")
    segments = scenarios._plan("y_closed_loop", run).segments
    psi_a = basis_state(IDX_ONE)
    psi_o = basis_state(IDX_ONE)
    for pulseset, template in segments:
        drive = template(pulseset, PARAMS)
        window = pulseset.window()
        spec = PropagationSpec(*window, rel_tol=1e-10)
        psi_a = propagate.schrodinger_propagate(drive, psi_a / np.linalg.norm(psi_a),
                                                spec).final()
        psi_o = propagate.oracle_propagate(lambda t: -1j * build_h_y(t, pulseset, PARAMS),
                                           psi_o, 0.5, window[0], window[1])
    worst_deviation = max(worst_deviation, float(np.max(np.abs(psi_o - psi_a))))

    # z protocol at the reference width, over its window (-1450, 800)
    ps = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.4)
    deviation, _ = cli.cross_oracle_deviation(drive_z, ps, PARAMS, ps.window(), 0.5)
    worst_deviation = max(worst_deviation, deviation)

    # Lindblad trace and positivity bookkeeping on both protocols
    worst_trace, worst_eig = 0.0, 0.0
    for pulseset, template in [segments[0], (ps, drive_z)]:
        drive = template(pulseset, PARAMS)
        spec = PropagationSpec(*pulseset.window(), rel_tol=1e-10, record_stride=100.0)
        traj = propagate.lindblad_propagate(drive, lindblad_channels(PARAMS),
                                            density_from_state(basis_state(IDX_ONE)), spec)
        worst_trace = max(worst_trace, traj.meta["trace_drift"])
        worst_eig = min(worst_eig, traj.meta["min_eigenvalue"])

    ok = worst_deviation < 1e-6 and worst_trace < 1e-9 and worst_eig > -1e-8
    msg = _line("criterion 08 propagator cross-oracle", ok,
                f"largest amplitude difference {worst_deviation:.3e} (< 1e-6), trace drift "
                f"{worst_trace:.3e} (< 1e-9), min eigenvalue {worst_eig:.3e} (> -1e-8)")
    assert ok, msg


def test_criterion_09_scaling_invariances():
    scales = np.random.default_rng(99).uniform(0.1, 10.0, 100)
    worst_y = cli.scale_shift(lambda ps, _: holonomy.geometric_angle_y(ps).angle,
                              pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0), PARAMS, scales)
    worst_z = cli.scale_shift(lambda ps, mp: holonomy.geometric_phase_z(ps, mp).angle,
                              pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.0), PARAMS, scales)
    ok = worst_y < 1e-9 and worst_z < 1e-9
    msg = _line("criterion 09 scaling invariances", ok,
                f"worst y-angle shift {worst_y:.3e} rad, worst z-phase shift "
                f"{worst_z:.3e} rad over 100 random scalings each (< 1e-9)")
    assert ok, msg


def test_criterion_10_readout_counts():
    duration = 40000.0
    up, down, mixed = (scenarios.run_readout(np.diag(diag).astype(complex), duration, PARAMS,
                                             PARAMS.gamma)
                       for diag in ([0.0, 1.0], [1.0, 0.0], [0.5, 0.5]))
    ok = (abs(up.total_photons - 2.0) <= 0.1
          and down.total_photons < 1e-3
          and abs(mixed.total_photons - 1.0) <= 0.05
          and up.shelving_complete)
    msg = _line("criterion 10 readout counts", ok,
                f"expected photons: spin-up {up.total_photons:.4f} (2.0 +- 0.1), "
                f"spin-down {down.total_photons:.2e} (< 1e-3), mixed "
                f"{mixed.total_photons:.4f} (1.0 +- 0.05); shelving complete: "
                f"{up.shelving_complete}")
    assert ok, msg
