"""End-to-end protocol runs: optical initialization, sweeps of a gate's
first-segment geometric angle over the delay ratio, full gate simulations
with fidelity estimates, and the polarization-selective readout model.

Gate conventions
----------------
The y rotation is run as a closed loop: a forward pass (pump on) that
carries the Stokes/driving mixing angle from 0 to pi/2 while accumulating
the geometric angle, then a pump-free return pass that retracts the angle
to 0 without adding phase.  The return delay is a plumbing choice; its
default (0.7 tau) sits in the adiabatic sweet spot of the delayed-Gaussian
family.  Every y segment is one ``make_y_pulseset`` set, given by its pump
peak, its signed delay (+tau0 forward, -tau_ret back) and its Stokes phase.
A gate's first segment (its forward pass, or the z set) is built in one
place, ``_first_set``, which also gives the sweeps their rows.
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
from .model import (Drive, ModelParams, build_h_y, build_h_z, drive_y,  # noqa: F401
                    drive_z, lindblad_channels)
from .propagate import (PropagationSpec, Trajectory, lindblad_propagate, schrodinger_propagate,
                        semigroup_propagate)
from .pulses import PulseSet, make_y_pulseset, make_z_pulseset
from .qcore import (IDX_ANC, IDX_E1, IDX_E2, IDX_ONE, IDX_ZERO, density_from_state,
                    lift_density, lift_qubit)

# the four qubit inputs of a gate, as the rows of one 4x2 array
_QUBIT_LABELS = ("0", "1", "+", "+i")
_QUBITS = (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1j]])
           / np.sqrt([[1.0], [1.0], [2.0], [2.0]]))
# the four inputs in the five-level space, as states and as densities, each
# stacked along a leading axis as the integrators take them
_INPUT_STACK = lift_qubit(_QUBITS.T).T
_INPUT_DENSITIES = density_from_state(_INPUT_STACK)
# the six axial states, a qubit 2-design: the four inputs, then |-> and |-i>
_SIX_AXIAL = np.vstack([_QUBITS, _QUBITS[2:] * [1.0, -1.0]])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# beyond ~40 widths of delay the Gaussian overlap underflows double precision
# and the mixing-angle crossover becomes unrepresentable in t.  The z phase,
# integrated in theta, is pi/4 up to 40; the y angle's t-domain quadrature
# fails well before that: it raises at 19.11-19.28 and returns 0, with an
# error estimate of 0, instead of pi/2 from 19.29 (ROADMAP item 1)
MAX_DELAY_RATIO = 40.0


def check_sweep_ratios(ratios) -> tuple:
    """The delay ratios of a sweep as a tuple of floats: at least one,
    non-negative, strictly increasing and at most MAX_DELAY_RATIO."""
    ratios = tuple(map(float, ratios))
    if not ratios:
        raise ValueError("a sweep needs at least one ratio")
    # each comparison is false for NaN, so a NaN ratio fails its test
    if not all(a < b for a, b in zip(ratios, ratios[1:])):
        raise ValueError("sweep ratios must be strictly increasing")
    if not ratios[0] >= 0.0:
        raise ValueError("sweep ratios must be non-negative")
    if not ratios[-1] <= MAX_DELAY_RATIO:
        raise ValueError(f"delay ratios beyond {MAX_DELAY_RATIO:.0f} pulse widths are "
                         "outside the representable range of the Gaussian families")
    return ratios


def sweep_angle(variant: str, run: GateRun, ratios) -> tuple[np.ndarray, np.ndarray]:
    """(angles, quadrature errors) of the variant's first segment, the
    angle a gate reports as ``angle_quadrature``, with the run's forward
    delay ratio set to each of the ratios.

    Neither angle depends on the time scale: the y angle reads the delay
    and the pump-to-Stokes peak ratio, the z phase the delay and
    amp / model.delta.  The z rows are one array evaluation.
    """
    if variant not in ("y_closed_loop", "z_fractional"):
        raise ValueError(f"no sweep of gate variant {variant!r}; "
                         "sweep y_closed_loop or z_fractional")
    sets = [_first_set(variant, replace(run, tau0_over_tau=r)) for r in check_sweep_ratios(ratios)]
    if variant == "z_fractional":
        return holonomy.phases_z(sets, run.model)
    results = [holonomy.geometric_angle_y(pulses) for pulses in sets]
    return (np.array([r.angle for r in results]),
            np.array([r.quad_error for r in results]))


# ---------------------------------------------------------------------------
# Initialization (continuous optical pumping)
# ---------------------------------------------------------------------------

def _pumping(polarization: str, rabi: float, params: ModelParams) -> Drive:
    """The constant single-field drive of optical pumping, a drive without
    terms: sigma_minus drives |0> (the pump), sigma_plus drives |1> (the
    Stokes field).  Its Hamiltonian is the y drive of one pulse set at t = 0,
    where each pulse equals its amplitude."""
    # Envelope rejects a negative rabi
    if polarization not in ("sigma_minus", "sigma_plus"):
        raise ValueError("polarization must be sigma_minus or sigma_plus")
    pump, stokes = (rabi, 0.0) if polarization == "sigma_minus" else (0.0, rabi)
    return Drive(drive_y(make_y_pulseset(pump, stokes, 0.0, 0.0, 1.0), params)(0.0), ())


def run_initialization(polarization: str, qubit_block: np.ndarray, rabi: float,
                       duration: float, params: ModelParams,
                       record_stride: float) -> tuple[Trajectory, np.ndarray]:
    """Continuous single-field optical pumping with the full dissipation model,
    from a unit-trace 2x2 qubit density block.

    sigma_minus drives |0> (preparing spin up), sigma_plus drives |1>
    (preparing spin down).  The drive is constant, so the snapshots come
    from the one exact solver, ``semigroup_propagate``.  Returns the
    trajectory and the signed preparation fidelity (rho_target -
    rho_other)/(rho_00 + rho_11) at each snapshot.
    """
    drive = _pumping(polarization, rabi, params)
    # semigroup_propagate rejects a duration <= 0
    traj, _ = semigroup_propagate(drive, lindblad_channels(params), lift_density(qubit_block),
                                  duration, record_stride)
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

# absolute tolerance of every gate segment solve.  The DOP853 error norm is an
# RMS over the whole four-input stack, most of whose entries are near zero, so
# there this tolerance, not rel_tol, sets the step count.  Budget: every
# process-block entry of every reference gate, open and coherent, stays within
# 2e-9 of a tight solve (rel_tol 1e-13, abs_tol 1e-15); the worst measured is
# 9.3e-10 (coherent z).  1e-10 would move the coherent z gate by 3.4e-9.
GATE_ABS_TOL = 1e-11


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
    # per segment solve: step and RHS counts, tolerances and drift values
    # (Trajectory.meta)
    solver_stats: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _y_sets(run: GateRun, *passes) -> tuple:
    """One y segment per (pump peak, signed delay, Stokes phase) pass, with
    the run's Stokes/driving peak and width."""
    return tuple(replace(make_y_pulseset(pump, run.amp, run.amp, delay, run.tau),
                         stokes_phase=phase) for pump, delay, phase in passes)


def _first_set(variant: str, run: GateRun) -> PulseSet:
    """The variant's first pulse set: the z set, or the y forward pass with
    pump peak run.pump_amp (run.amp when None)."""
    tau0 = run.tau0_over_tau * run.tau
    if variant == "z_fractional":
        return make_z_pulseset(run.amp, run.amp, tau0, run.tau, run.phase)
    pump = run.pump_amp if run.pump_amp is not None else run.amp
    forward, = _y_sets(run, (pump, tau0, 0.0))
    return forward


def _forward(variant: str, run: GateRun) -> tuple:
    """The variant's first pulse set and its geometric quadrature."""
    pulses = _first_set(variant, run)
    if variant == "z_fractional":
        return pulses, holonomy.geometric_phase_z(pulses, run.model)
    return pulses, holonomy.geometric_angle_y(pulses)


def _quarter_turn(run: GateRun) -> tuple:
    """The run with the pump peak that tunes the forward-pass geometric angle
    to pi/4, and ``_forward``'s result at that peak.  Each peak's quadrature
    runs once: the search's top endpoint is the reach test's peak, and its
    root one of the peaks it tried."""
    forwards = {}

    def forward(amp_p):
        if amp_p not in forwards:
            forwards[amp_p] = _forward("x_composite", replace(run, pump_amp=amp_p))
        return forwards[amp_p]

    def miss(amp_p):
        return forward(amp_p)[1].angle - math.pi / 4.0

    # the forward angle grows with the pump peak, so the bracket's top is the
    # largest angle the search can reach
    reach = miss(run.amp) + math.pi / 4.0
    if not reach >= math.pi / 4.0:
        raise ValueError(
            f"x_composite: no pump peak up to amp_stokes reaches the pi/4 forward angle at "
            f"tau0_over_tau = {run.tau0_over_tau:g} (largest reachable angle {reach:.4f} rad); "
            "set amp_pump or use a larger tau0_over_tau")
    root = brentq(miss, 1e-4 * run.amp, run.amp, xtol=1e-12)
    return replace(run, pump_amp=root), forward(root)


@dataclass(frozen=True)
class _Plan:
    """Everything a gate variant decides, from its run alone."""

    segments: tuple          # (pulses, drive template) per solve, over pulses.window()
    frame_phase: float       # laser-frame phase applied to |1> after the solves
    angle: float             # quadrature angle of the first segment
    # the variant's ideal 5x2 map from a qubit input to its five-level output,
    # in the logical frame (the frame rotation already applied), as a function
    # of the geometric angle: target is its |0>, |1> rows at the nominal angle,
    # predicted is the whole map at the quadrature angle
    target: np.ndarray
    predicted: np.ndarray


def _plan(variant: str, run: GateRun) -> _Plan:
    """Segments, frame phase, quadrature angle, target and prediction of a variant."""
    if variant not in _REFERENCE_RUNS:
        raise ValueError(f"unknown gate variant {variant!r}")
    if variant == "x_composite" and run.pump_amp is None:
        run, (first, quadrature) = _quarter_turn(run)
    else:
        first, quadrature = _forward(variant, run)
    angle = quadrature.angle
    tret = run.return_delay_over_tau * run.tau

    if variant == "y_closed_loop":
        loop = (first, *_y_sets(run, (0.0, -tret, 0.0)))
        segments = tuple((pulses, drive_y) for pulses in loop)
        frame_phase, nominal = 0.0, run.target_angle
        def ideal(a):
            return lift_qubit(holonomy.predicted_ry(a))
    elif variant == "z_fractional":
        segments = ((first, drive_z),)
        # at pi/4 the driven population returns to |1>, carrying the phase
        frame_phase, nominal = run.phase, math.pi / 4.0
        def ideal(a):
            m = lift_qubit(np.diag([1.0, math.cos(a - math.pi / 4.0) * np.exp(1j * run.phase)]))
            # input |1> keeps an ancilla amplitude; the frame rotation touches
            # |1> only, so the raw ancilla phase e^{-i phase} stays
            m[IDX_ANC, 1] = np.exp(-1j * run.phase) * math.sin(a - math.pi / 4.0)
            return m
    else:
        chi = -run.phase  # frame phase carried by the mirror loop's pulses
        # the y loop, then its mirror: two quarter loops around the virtual
        # phase gate, the pump tuned to a pi/4 forward angle
        sets = (first, *_y_sets(run, (0.0, -tret, 0.0), (0.0, tret, chi),
                                (run.pump_amp, -run.tau0_over_tau * run.tau, chi)))
        segments = tuple((pulses, drive_y) for pulses in sets)
        frame_phase, nominal = run.phase, math.pi / 4.0
        def ideal(a):
            ry = holonomy.predicted_ry(a)
            return lift_qubit(ry.conj().T @ holonomy.predicted_rz(run.phase) @ ry)

    return _Plan(segments=segments, frame_phase=frame_phase, angle=angle,
                 target=ideal(nominal)[[IDX_ZERO, IDX_ONE]], predicted=ideal(angle))


def _propagate_segments(segments, run: GateRun, with_decoherence: bool) -> tuple:
    """Carry the four qubit inputs through the segment list, one solve per
    segment, as densities (with decoherence) or as states; returns the four
    output densities and each solve's statistics (``Trajectory.meta``)."""
    channels = lindblad_channels(run.model) if with_decoherence else None
    state = _INPUT_DENSITIES if with_decoherence else _INPUT_STACK
    stats = []
    for pulses, template in segments:
        drive = template(pulses, run.model)
        spec = PropagationSpec(*pulses.window(), abs_tol=GATE_ABS_TOL)
        if with_decoherence:
            traj = lindblad_propagate(drive, channels, state, spec)
        else:
            traj = schrodinger_propagate(drive, state, spec)
        state = traj.final()
        stats.append(traj.meta)
    if not with_decoherence:
        state = density_from_state(state)
    return state, stats


def simulate_gate(variant: str, run: GateRun | None = None, *,
                  with_decoherence: bool) -> tuple[dict, GateReport]:
    """Drive the four qubit basis inputs through the full five-level dynamics.

    Returns the reconstructed qubit process (the unrenormalized |0>, |1>
    block of each input's output, keyed by ``_QUBIT_LABELS``) and a
    GateReport carrying the six-state average fidelity against the variant's
    nominal target, for the propagated channel and for the dark-subspace
    prediction.
    """
    run = run or default_gate_run(variant)
    plan = _plan(variant, run)

    frame = np.diag([1.0, np.exp(1j * plan.frame_phase), 1.0, 1.0, 1.0]).astype(complex)
    finals, stats = _propagate_segments(plan.segments, run, with_decoherence)
    outputs = frame @ finals @ frame.conj().T
    blocks = outputs[:, :2, :2]
    leakage_final = float(np.max(1.0 - outputs[:, IDX_ZERO, IDX_ZERO].real
                                 - outputs[:, IDX_ONE, IDX_ONE].real))
    fidelity = gate_fidelity(blocks, plan.target)
    if fidelity > 1.0 + 1e-9:
        raise ValueError(f"unphysical channel: fidelity {fidelity} exceeds unity")
    dark_map = plan.predicted[[IDX_ZERO, IDX_ONE]]
    fid_dark = gate_fidelity(dark_map @ density_from_state(_QUBITS) @ dark_map.conj().T,
                             plan.target)
    overlap = float(np.min(_expectations(_QUBITS @ plan.predicted.T, outputs)))

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
    return dict(zip(_QUBIT_LABELS, blocks)), report


# ---------------------------------------------------------------------------
# Channel averaging
# ---------------------------------------------------------------------------

def _expectations(states: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """<p|E|p>, real part, for each state p of a stack and its operator E."""
    return (states.conj()[:, None, :] @ (operators @ states[:, :, None]))[:, 0, 0].real


def gate_fidelity(images: np.ndarray, target: np.ndarray) -> float:
    """Input-state-averaged fidelity of a qubit channel given by its images
    of the four inputs, a (4, 2, 2) stack in ``_QUBIT_LABELS`` order: the
    average over the six axial states, which form a qubit 2-design, so the
    average is exact and linear in the images.  The images of |-> and |-i>
    follow by linearity, because |+><+| + |-><-| and |+i><+i| + |-i><-i|
    are both the identity."""
    e0, e1, ex, ey = images
    six = np.stack((e0, e1, ex, ey, e0 + e1 - ex, e0 + e1 - ey))
    return float(np.sum(_expectations(_SIX_AXIAL @ target.T, six))) / len(six)


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadoutResult:
    """Expected photon counts of a continuous readout drive."""

    total_photons: float
    shelving_complete: bool
    driven_population_left: float
    # the one exact solve's method, step count and drift values (Trajectory.meta)
    solver_stats: list


def run_readout(qubit_block: np.ndarray, duration: float, params: ModelParams,
                rabi: float) -> ReadoutResult:
    """Continuous drive of |1> with the full dissipation model: the
    sigma_plus pumping of ``run_initialization``, read as photons.

    Expected emissions are the time integral of 2 gamma (rho_e1e1 +
    rho_e2e2), taken exactly, with the final state, from the one exact
    solver, ``semigroup_propagate``, at stride 0; the four recombination
    channels are equal, so exactly half the photons accompany decay to each
    spin state.  A |1> occupation cycles (emit, then re-excite with probability
    1/2) until it shelves in |0>, giving two expected photons; |0> input
    stays dark.
    """
    traj, integral = semigroup_propagate(_pumping("sigma_plus", rabi, params),
                                         lindblad_channels(params), lift_density(qubit_block),
                                         duration, 0.0)
    excited = integral[IDX_E1, IDX_E1].real + integral[IDX_E2, IDX_E2].real
    final = traj.final()
    driven_left = float(final[IDX_ONE, IDX_ONE].real + final[IDX_E1, IDX_E1].real
                        + final[IDX_E2, IDX_E2].real)
    return ReadoutResult(
        total_photons=float(2.0 * params.gamma * excited),
        shelving_complete=driven_left < 1e-3,
        driven_population_left=driven_left,
        solver_stats=[traj.meta],
    )
