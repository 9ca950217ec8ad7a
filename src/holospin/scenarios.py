"""End-to-end protocol runs: optical initialization, sweep tables for the
two geometric angles, full gate simulations with fidelity estimates, and
the polarization-selective readout model.

Gate conventions
----------------
The y rotation is run as a closed loop: a forward pass (pump on) that
carries the Stokes/driving mixing angle from 0 to pi/2 while accumulating
the geometric angle, then a pump-free return pass that retracts the angle
to 0 without adding phase.  The return delay is a plumbing choice; its
default (0.7 tau) sits in the adiabatic sweet spot of the delayed-Gaussian
family.  Every y segment is one ``make_y_pulseset`` set, given by its pump
peak, its signed delay (+tau0 forward, -tau_ret back) and its Stokes phase.
The x rotation is that loop, its pump tuned to a pi/4 forward angle, then
its mirror: the two sets in reverse order, delays negated, Stokes phase
-phase.

The z rotation carries the Stokes relative phase into the spin state.  On
the bare qubit block the propagator is exactly independent of that phase
(the phase enters as a frame rotation of |1>), so the realized gate is
reported in the laser frame: the assembled channel is composed with the
frame rotation diag(1, e^{i phase}), and the same bookkeeping propagates
through composite sequences by shifting the Stokes phase of all later
pulses.  This is recorded in every GateReport as frame_phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from . import holonomy
# build_h_y and build_h_z are not called here, but they stay importable by
# name: perfbench/spans.py patches them in this module
from .model import (ModelParams, build_h_y, build_h_z, drive_y, drive_z,  # noqa: F401
                    lindblad_channels)
from .propagate import PropagationSpec, Trajectory, lindblad_propagate, schrodinger_propagate
from .pulses import OFF, ConstantPulse, PulseSet, make_y_pulseset, make_z_pulseset
from .qcore import (IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO, density_from_state,
                    lift_density, lift_qubit, project_qubit)

# the four qubit inputs of a gate, as the columns of one 2x4 array
_QUBIT_LABELS = ("0", "1", "+", "+i")
_QUBITS = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1j]]) / np.sqrt([1.0, 1.0, 2.0, 2.0])
# the four inputs in the five-level space: states as columns, densities
# along a leading axis (the stack layouts of the integrators)
_INPUT_STACK = lift_qubit(_QUBITS)
_INPUT_DENSITIES = np.stack([density_from_state(psi) for psi in _INPUT_STACK.T])

_SIX_AXIAL = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1j], dtype=complex) / math.sqrt(2.0),
)


# ---------------------------------------------------------------------------
# Sweep tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepTable:
    """Rows of (delay ratio, angle, quadrature error)."""

    ratios: np.ndarray
    angles: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        if len(self.ratios) == 0:
            raise ValueError("sweep table must have at least one row")
        if np.any(np.diff(self.ratios) <= 0.0):
            raise ValueError("sweep ratios must be strictly increasing")

    def rows(self):
        return zip(self.ratios, self.angles, self.errors)


# beyond ~40 widths of delay the Gaussian overlap underflows double precision
# and the mixing-angle crossover becomes unrepresentable
MAX_DELAY_RATIO = 40.0


# The sweep angles depend on the delay ratio, not on the time scale, so the
# tables use the reference pulse width.
_SWEEP_WIDTH = 100.0


def _sweep(one_row, ratios) -> SweepTable:
    ratios = np.asarray(list(ratios), dtype=float)
    if ratios.size and float(np.max(ratios)) > MAX_DELAY_RATIO:
        raise ValueError(f"delay ratios beyond {MAX_DELAY_RATIO:.0f} pulse widths are "
                         "outside the representable range of the Gaussian families")
    results = [one_row(r) for r in ratios]
    return SweepTable(ratios, np.array([r.angle for r in results]),
                      np.array([r.quad_error for r in results]))


def sweep_angle_y(ratios) -> SweepTable:
    """Geometric y-rotation angle against the pulse delay ratio.

    The angle depends on the delay ratio alone: it is invariant under a
    common rescaling of the three amplitudes and of time.
    """
    def one_row(ratio):
        pulses = make_y_pulseset(0.5, 0.5, 0.5, ratio * _SWEEP_WIDTH, _SWEEP_WIDTH)
        return holonomy.geometric_angle_y(pulses)

    return _sweep(one_row, ratios)


def sweep_phase_z(ratios, amp: float = 0.5, params: ModelParams | None = None) -> SweepTable:
    """Fractional-STIRAP geometric phase against the pulse delay ratio.

    Depends on the delay ratio and on amp / params.delta, not on the time scale.
    """
    params = params or ModelParams()

    def one_row(ratio):
        pulses = make_z_pulseset(amp, amp, ratio * _SWEEP_WIDTH, _SWEEP_WIDTH, 0.0)
        return holonomy.geometric_phase_z(pulses, params)

    return _sweep(one_row, ratios)


# ---------------------------------------------------------------------------
# Initialization (continuous optical pumping)
# ---------------------------------------------------------------------------

def run_initialization(polarization: str, qubit_block: np.ndarray, rabi: float,
                       duration: float, params: ModelParams | None = None,
                       record_stride: float | None = None,
                       rel_tol: float = 1e-9) -> tuple[Trajectory, np.ndarray]:
    """Continuous single-field optical pumping with the full dissipation model,
    from a unit-trace 2x2 qubit density block.

    sigma_minus drives |0> (preparing spin up), sigma_plus drives |1>
    (preparing spin down).  Returns the trajectory and the signed
    preparation fidelity (rho_target - rho_other)/(rho_00 + rho_11) at each
    snapshot.
    """
    if polarization not in ("sigma_minus", "sigma_plus"):
        raise ValueError("polarization must be sigma_minus or sigma_plus")
    if rabi < 0.0 or duration <= 0.0:
        raise ValueError("rabi must be non-negative and duration positive")
    params = params or ModelParams()
    drive = ConstantPulse(rabi)
    if polarization == "sigma_minus":
        pulses = PulseSet(pump=drive, stokes=OFF, driving=OFF)
    else:
        pulses = PulseSet(pump=OFF, stokes=drive, driving=OFF)
    stride = record_stride if record_stride is not None else duration / 400.0
    spec = PropagationSpec(0.0, duration, rel_tol=rel_tol, record_stride=stride)
    traj = lindblad_propagate(drive_y(pulses, params), lindblad_channels(params),
                              lift_density(qubit_block), spec)
    r00 = traj.states[:, IDX_ZERO, IDX_ZERO].real
    r11 = traj.states[:, IDX_ONE, IDX_ONE].real
    sign = 1.0 if polarization == "sigma_minus" else -1.0
    fidelity = sign * (r11 - r00) / (r11 + r00)
    return traj, fidelity


# ---------------------------------------------------------------------------
# Gate simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateRun:
    """Parameters of one gate simulation."""

    model: ModelParams = field(default_factory=ModelParams)
    amp: float = 0.5                   # Stokes/driving peak, rad/ps
    pump_amp: float | None = None      # forward-pass pump peak; None -> variant rule
    tau: float = 100.0                 # pulse width, ps
    tau0_over_tau: float = 1.5         # forward-pass delay ratio
    return_delay_over_tau: float = 0.7 # pump-free retraction delay ratio
    phase: float = 0.0                 # Stokes relative phase (z / composite)
    target_angle: float = math.pi / 2  # nominal rotation angle of the target


# reference parameters per variant (see the module docstring)
_REFERENCE_RUNS = {
    "y_closed_loop": GateRun(),
    "z_fractional": GateRun(tau0_over_tau=6.5, phase=math.pi / 2),
    "x_composite": GateRun(tau0_over_tau=1.0, phase=math.pi / 2),
}
VARIANTS = tuple(_REFERENCE_RUNS)


def default_gate_run(variant: str, **overrides) -> GateRun:
    """Reference parameters of a variant, with the given fields replaced."""
    if variant not in _REFERENCE_RUNS:
        raise ValueError(f"unknown gate variant {variant!r}")
    return replace(_REFERENCE_RUNS[variant], **overrides)


# final leakage above which a gate report warns and the gate scenario fails
LEAKAGE_BOUND = 0.05


@dataclass
class GateReport:
    """Outcome of one simulated gate."""

    fidelity: float
    fidelity_dark_subspace: float
    leakage_final: float
    frame_phase: float
    angle_quadrature: float
    # worst overlap <p|rho|p> over the four inputs between the holonomy-predicted
    # five-level state p and the frame-corrected output rho
    prediction_overlap: float
    # per segment solve: RHS evaluations and drift values (Trajectory.meta)
    solver_stats: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _y_sets(run: GateRun, *passes) -> tuple:
    """One y segment per (pump peak, signed delay, Stokes phase) pass, with
    the run's Stokes/driving peak and width."""
    return tuple(replace(make_y_pulseset(pump, run.amp, run.amp, delay, run.tau),
                         stokes_phase=phase) for pump, delay, phase in passes)


def _quarter_turn_pump_amp(run: GateRun) -> float:
    """Pump peak that tunes the forward-pass geometric angle to pi/4."""
    tau0 = run.tau0_over_tau * run.tau

    def miss(amp_p):
        forward, = _y_sets(run, (amp_p, tau0, 0.0))
        return holonomy.geometric_angle_y(forward).angle - math.pi / 4.0

    # the forward angle grows with the pump peak, so the bracket's top is the
    # largest angle the search can reach
    reach = miss(run.amp) + math.pi / 4.0
    if not reach >= math.pi / 4.0:
        raise ValueError(
            f"x_composite: no pump peak up to amp_stokes reaches the pi/4 forward angle at "
            f"tau0_over_tau = {run.tau0_over_tau:g} (largest reachable angle {reach:.4f} rad); "
            "set amp_pump or use a larger tau0_over_tau")
    return brentq(miss, 1e-4 * run.amp, run.amp, xtol=1e-12)


@dataclass(frozen=True)
class _Plan:
    """Everything a gate variant decides, from its run alone."""

    segments: tuple          # (pulses, drive template) per solve, over pulses.window()
    frame_phase: float       # laser-frame phase applied to |1> after the solves
    angle: float             # quadrature angle of the first segment
    target: np.ndarray       # nominal 2x2 gate
    # 5x2 map from a qubit input to its holonomy-predicted five-level output,
    # in the logical frame (the frame rotation already applied)
    predicted: np.ndarray


def _plan(variant: str, run: GateRun) -> _Plan:
    """Segments, frame phase, quadrature angle, target and prediction of a variant."""
    tau = run.tau
    tau0 = run.tau0_over_tau * tau
    tret = run.return_delay_over_tau * tau

    if variant == "y_closed_loop":
        pump = run.pump_amp if run.pump_amp is not None else run.amp
        loop = _y_sets(run, (pump, tau0, 0.0), (0.0, -tret, 0.0))
        angle = holonomy.geometric_angle_y(loop[0]).angle
        return _Plan(segments=tuple((pulses, drive_y) for pulses in loop),
                     frame_phase=0.0, angle=angle,
                     target=holonomy.predicted_ry(run.target_angle),
                     predicted=lift_qubit(holonomy.predicted_ry(angle)))

    if variant == "z_fractional":
        pulses = make_z_pulseset(run.amp, run.amp, tau0, tau, run.phase)
        angle = holonomy.geometric_phase_z(pulses, run.model).angle
        amp1 = (math.sin(angle) + math.cos(angle)) / math.sqrt(2.0)
        predicted = lift_qubit(np.diag([1.0, amp1 * np.exp(1j * run.phase)]))
        # input |1> keeps an ancilla amplitude; the frame rotation touches |1>
        # only, so the raw ancilla phase e^{-i phase} stays
        predicted[IDX_ANC, 1] = (np.exp(-1j * run.phase)
                                 * (math.sin(angle) - math.cos(angle)) / math.sqrt(2.0))
        return _Plan(segments=((pulses, drive_z),),
                     frame_phase=run.phase, angle=angle,
                     target=holonomy.predicted_rz(run.phase), predicted=predicted)

    if variant == "x_composite":
        pump = run.pump_amp if run.pump_amp is not None else _quarter_turn_pump_amp(run)
        chi = -run.phase  # frame phase carried by the mirror loop's pulses
        # the y loop, then its mirror: two quarter loops around the virtual phase gate
        sets = _y_sets(run, (pump, tau0, 0.0), (0.0, -tret, 0.0),
                       (0.0, tret, chi), (pump, -tau0, chi))
        angle = holonomy.geometric_angle_y(sets[0]).angle
        ry = holonomy.predicted_ry(angle)
        return _Plan(segments=tuple((pulses, drive_y) for pulses in sets),
                     frame_phase=run.phase, angle=angle,
                     target=holonomy.compose_rx(run.phase),
                     predicted=lift_qubit(ry.conj().T @ holonomy.predicted_rz(run.phase) @ ry))

    raise ValueError(f"unknown gate variant {variant!r}")


def _propagate_segments(state, segments, run: GateRun, with_decoherence: bool):
    """Carry a state or a stack of states (vectors or densities) through the
    segment list, one solve per segment; returns the final state and each
    solve's statistics (``Trajectory.meta``)."""
    channels = lindblad_channels(run.model) if with_decoherence else None
    stats = []
    for pulses, template in segments:
        drive = template(pulses, run.model)
        spec = PropagationSpec(*pulses.window())
        if with_decoherence:
            traj = lindblad_propagate(drive, channels, state, spec)
        else:
            traj = schrodinger_propagate(drive, state, spec)
        state = traj.final()
        stats.append(traj.meta)
    return state, stats


def simulate_gate(variant: str, run: GateRun | None = None,
                  with_decoherence: bool = True, seed=None) -> tuple[dict, GateReport]:
    """Drive the four qubit basis inputs through the full five-level dynamics.

    Returns the reconstructed qubit process (projected blocks per input plus
    leakages) and a GateReport carrying the six-state average fidelity
    against the variant's nominal target, for the propagated channel and
    for the dark-subspace prediction.  ``seed`` rotates the sphere points of
    the consistency check inside both fidelity computations.
    """
    run = run or default_gate_run(variant)
    plan = _plan(variant, run)

    frame = np.diag([1.0, np.exp(1j * plan.frame_phase), 1.0, 1.0, 1.0]).astype(complex)
    if with_decoherence:
        finals, stats = _propagate_segments(_INPUT_DENSITIES, plan.segments, run, True)
    else:
        psis, stats = _propagate_segments(_INPUT_STACK, plan.segments, run, False)
        finals = [density_from_state(psi) for psi in psis.T]
    outputs = [frame @ final @ frame.conj().T for final in finals]
    blocks = [project_qubit(rho) for rho in outputs]
    process = {label: block for label, (block, _) in zip(_QUBIT_LABELS, blocks)}
    leakage_final = max(leak for _, leak in blocks)
    fidelity = gate_fidelity(process, plan.target, seed=seed)
    if fidelity > 1.0 + 1e-9:
        raise ValueError(f"unphysical channel: fidelity {fidelity} exceeds unity")
    dark_map = plan.predicted[[IDX_ZERO, IDX_ONE]]
    dark_process = {label: dark_map @ np.outer(q, q.conj()) @ dark_map.conj().T
                    for label, q in zip(_QUBIT_LABELS, _QUBITS.T)}
    fid_dark = gate_fidelity(dark_process, plan.target, seed=seed)
    predicted = plan.predicted @ _QUBITS
    overlap = min(float(np.vdot(p, rho @ p).real) for p, rho in zip(predicted.T, outputs))

    report = GateReport(
        fidelity=fidelity,
        fidelity_dark_subspace=fid_dark,
        leakage_final=leakage_final,
        frame_phase=plan.frame_phase,
        angle_quadrature=plan.angle,
        prediction_overlap=overlap,
        solver_stats=stats,
    )
    if leakage_final > LEAKAGE_BOUND:
        report.warnings.append(f"final leakage {leakage_final:.3f} exceeds "
                               f"{LEAKAGE_BOUND}: protocol failed adiabaticity")
    return process, report


# ---------------------------------------------------------------------------
# Channel averaging
# ---------------------------------------------------------------------------

def _apply_channel(process: dict, rho2: np.ndarray) -> np.ndarray:
    """Reconstruct E(rho) from the four measured basis outputs by linearity."""
    e00, e11 = process["0"], process["1"]
    ex = 2.0 * process["+"] - e00 - e11
    ey = 2.0 * process["+i"] - e00 - e11
    return (rho2[0, 0].real * e00 + rho2[1, 1].real * e11
            + rho2[0, 1].real * ex - rho2[0, 1].imag * ey)


# points of the Fibonacci-sphere quadrature in gate_fidelity
_SPHERE_POINTS = 400


def _fibonacci_sphere(n: int, seed=None) -> np.ndarray:
    """Deterministic low-discrepancy qubit states; optional seeded rotation."""
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    azimuth = 2.0 * math.pi * k * (math.sqrt(5.0) - 1.0) / 2.0
    polar = np.arccos(np.clip(z, -1.0, 1.0))
    if seed is not None:
        rng = np.random.default_rng(seed)
        azimuth = azimuth + rng.uniform(0.0, 2.0 * math.pi)
    states = np.stack([np.cos(polar / 2.0) * np.ones_like(azimuth),
                       np.sin(polar / 2.0) * np.exp(1j * azimuth)], axis=1)
    return states


def gate_fidelity(process: dict, target: np.ndarray, seed=None) -> float:
    """Input-state-averaged fidelity of a reconstructed channel.

    Computed two ways: the six-axial-state average (exact for a qubit
    2-design) and a Fibonacci-sphere quadrature with 400 points, rotated by
    the seed if one is given.  The two must agree within 1e-4; the
    six-state value is returned.
    """
    def one(psi):
        rho = np.outer(psi, psi.conj())
        out = _apply_channel(process, rho)
        ideal = target @ psi
        return float(np.real(np.vdot(ideal, out @ ideal)))

    f_six = sum(one(s) for s in _SIX_AXIAL) / len(_SIX_AXIAL)
    sphere = _fibonacci_sphere(_SPHERE_POINTS, seed=seed)
    f_sphere = sum(one(s) for s in sphere) / len(sphere)
    if abs(f_six - f_sphere) > 1e-4:
        raise ValueError(
            f"channel average inconsistency: six-state {f_six:.8f} vs sphere {f_sphere:.8f}")
    return f_six


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadoutResult:
    """Expected photon counts of a continuous readout drive."""

    total_photons: float
    shelving_complete: bool
    driven_population_left: float
    # the one solve's RHS evaluations and drift values (Trajectory.meta)
    solver_stats: list


def run_readout(qubit_block: np.ndarray, duration: float,
                params: ModelParams | None = None, rabi: float | None = None,
                rel_tol: float = 1e-9) -> ReadoutResult:
    """Continuous drive of |1> with the full dissipation model: the
    sigma_plus pumping run of ``run_initialization``, read as photons.

    Expected emissions are the time integral of 2 gamma (rho_e1e1 +
    rho_e2e2); the four recombination channels are equal, so exactly half
    the photons accompany decay to each spin state.  A |1> occupation
    cycles (emit, then re-excite with probability 1/2) until it shelves in
    |0>, giving two expected photons; |0> input stays dark.
    """
    params = params or ModelParams()
    if rabi is None:
        rabi = params.gamma
    traj, _ = run_initialization("sigma_plus", qubit_block, rabi, duration, params,
                                 record_stride=duration / 2000.0, rel_tol=rel_tol)
    excited = traj.states[:, IDX_E1, IDX_E1].real + traj.states[:, IDX_E2, IDX_E2].real
    total = float(np.trapezoid(2.0 * params.gamma * excited, traj.times))
    final = traj.final()
    driven_left = float(final[IDX_ONE, IDX_ONE].real + final[IDX_E1, IDX_E1].real
                        + final[IDX_E2, IDX_E2].real)
    return ReadoutResult(
        total_photons=total,
        shelving_complete=driven_left < 1e-3,
        driven_population_left=driven_left,
        solver_stats=[traj.meta],
    )
