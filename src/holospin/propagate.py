"""Time propagation: Schrodinger and Lindblad integrators, the exact
semigroup of a constant drive, and an independent fourth-order exponential
oracle.

The adaptive integrator is Dormand and Prince's explicit embedded pair
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5); the
stiffness span of the model (drive ~0.5 rad/ps against decay ~1e-3 /ps)
is mild enough for explicit stepping, which the exponential oracle
verifies independently.  The step size is capped at half the narrowest
envelope width of the drive: an error estimate taken where every field has
died out cannot see a pulse that lies wholly inside one step, so without
the cap a solve may step over a lone pulse (ibid., sec. II.4).  A constant
envelope's width is infinite, so a drive whose envelopes are all constant
runs uncapped.  Each solve takes its relative and absolute tolerances from
its ``PropagationSpec`` (absolute: ``ABS_TOL`` unless the spec sets its
own) and records both in ``Trajectory.meta``, with its step count
``n_steps`` (accepted and rejected) and its generator evaluations
``n_rhs_evals``.

Both integrators take one input (a state (5,) or a density (5, 5)) or a
stack of k along a leading axis ((k, 5) or (k, 5, 5)), and solve the
linear problem y' = y G(t) with each input as one row y (a density
flattened row-major).  They take the Hamiltonian as a ``model.Drive``,
and the Lindblad integrator its jump operators as plain 5x5 arrays,
stacked once per solve: each term becomes its part of the transposed
generator ((-iK)^T for Schrodinger, the transposed 25x25 commutator
superoperator for Lindblad, with the dissipator in the constant term), so
G(t) = [1, f_1(t), ...] @ S for the stack S.

The loop is written out here rather than run through scipy's
``solve_ivp``, because G(t) does not depend on y.  Each step attempt
evaluates the envelopes once, on the array of its stage times, and one
product with S gives every stage's G; each stage is then one tableau
combination and one product with the rows.  The loop keeps scipy's
tableau (``scipy.integrate.DOP853``), initial-step rule, error norm (an
RMS of the complex moduli over the whole stack, so one step size serves
every row) and step-factor constants, and takes each sum in scipy's
order, so a solve without snapshots takes solve_ivp's steps (on the
reference gates its outputs equal solve_ivp's bit for bit); only the
three dense-output evaluations per snapshot go, since a spec with a
record stride clips its steps to the sample times instead.  Measured on
the open y forward segment (2-core host, one BLAS thread; its speed
alternates between two levels about 1.5x apart): a ``solve_ivp`` RHS
call cost 15-26 us in all, of which the RHS itself took 13 us (4.6 us of
it the envelope coefficient vector) and the rest was ``solve_ivp``'s
per-stage Python; the loop costs 12-13 us per generator evaluation, about
145 us per step, of which the step's generators (envelopes and the one
product) take 28 us.

A drive whose envelopes are all constant is solved exactly
(``semigroup_propagate``): rho(t) = exp(L t) rho0, one ``dense_expm`` per
snapshot stride, and its time integral from one augmented exponential
(``semigroup_integral``; Van Loan, IEEE Trans. Autom. Control 23, 395
(1978)).

The oracle integrates y' = G(t) y for any callable that returns the d x d
step generator G(t): -iH(t) (5x5) for a state, a Liouvillian (25x25) for
a vectorized density.  It takes one input (d,) or a stack of k as rows
(k, d), the integrators' layout, so each step maps the rows y to
y exp(h G)^T.  It steps with the midpoint exponential at dt and at dt/2,
exponentiating the midpoints in batched blocks, and returns the
Richardson combination (4 u(dt/2) - u(dt)) / 3.  The midpoint rule is
symmetric, so its error expansion holds even powers of dt only, and the
combination is fourth order (Hairer, Lubich & Wanner, Geometric Numerical
Integration, sec. II.4; Hochbruck & Ostermann, Acta Numerica 19, 209
(2010)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853

from .model import Drive
from .pulses import ConstantPulse
from .qcore import DIM, dense_expm


# default absolute tolerance of an adaptive solve (PropagationSpec.abs_tol);
# states and densities are O(1)
ABS_TOL = 1e-12
# oracle steps per batched dense_expm call: in blocks of 1000 a validate run
# peaks at 85 MB (88 MB with each of its 1800- and 3600-step passes in one
# call), and the 25x25 Liouvillian passes over a y gate segment at 0.4/0.2 ps
# peak at 130 MB (436 MB in one call)
_ORACLE_BLOCK = 1000

# scipy's DOP853 tableau: stage s sits at t + C[s] h, and C[11] = 1, so the
# last stage and the derivative at the step's end share one generator.  The
# weights of stage s are cast to complex once, as numpy would cast them for
# each product with the complex stages
_B, _C, _E3, _E5 = DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
_STAGES = len(_C)
_A_ROWS = [DOP853.A[s, :s].astype(complex) for s in range(_STAGES)]
# scipy's step-size controller (scipy.integrate._ivp.rk): safety factor,
# bounds on the factor per step, and the exponent -1 / (error order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
# scipy raises rel_tol to this floor
_REL_TOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class PropagationSpec:
    """Integration window, relative and absolute tolerances, and snapshot
    cadence."""

    t_start: float
    t_end: float
    rel_tol: float = 1e-10
    record_stride: float = 0.0   # 0 -> endpoints only
    abs_tol: float = ABS_TOL

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError("tolerances must lie in (0, 1e-2]")
        # each comparison is false for NaN
        if not 0.0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be a positive finite number")
        if self.record_stride < 0.0:
            raise ValueError("record_stride must be non-negative")

    def sample_times(self) -> np.ndarray:
        if self.record_stride == 0.0:
            return np.array([self.t_start, self.t_end])
        inner = np.arange(self.t_start, self.t_end, self.record_stride)
        return np.unique(np.concatenate([inner, [self.t_end]]))


@dataclass
class Trajectory:
    """Snapshots of a propagation: times plus the n snapshots of the input
    along a leading axis, as states (n, 5) or densities (n, 5, 5), or for a
    stack of k as (n, k, 5) or (n, k, 5, 5)."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.states[-1]


def _generators(drive: Drive, lift, constant):
    """times -> the generators G(t) (n, w, w) at an array of n times, with
    G(t) = [1, f_1(t), ...] @ S for the drive's terms stacked once as S,
    where lift maps one 5x5 Hamiltonian term to its w x w part of G and the
    constant is added to the h0 term."""
    parts = [lift(drive.h0) + constant] + [lift(k) for _, k in drive.terms]
    width = parts[0].shape[0]
    # the complex stack viewed as (re, im) pairs: a real product with the
    # real coefficients gives the same numbers as a complex one
    stack = np.stack(parts).reshape(len(parts), -1).view(float)
    envelopes = [f for f, _ in drive.terms]

    def at(times: np.ndarray) -> np.ndarray:
        coef = np.empty((len(times), len(parts)))
        coef[:, 0] = 1.0
        for column, envelope in enumerate(envelopes, start=1):
            coef[:, column] = envelope(times)
        return (coef @ stack).view(complex).reshape(-1, width, width)

    return at


def _rms(x: np.ndarray) -> float:
    """scipy's RMS norm of an array."""
    return float(np.linalg.norm(x)) / x.size ** 0.5


def _dop853(generators, y0: np.ndarray, spec: PropagationSpec, max_step: float,
            kind: str) -> Trajectory:
    """One adaptive DOP853 solve of y' = y G(t) for the rows of y0, with
    scipy's tableau, initial step, error norm and step control, each sum
    taken in scipy's order, so that a solve without snapshots reproduces
    solve_ivp's numbers; a record stride clips the steps to the sample
    times."""
    rtol, atol = max(spec.rel_tol, _REL_TOL_FLOOR), spec.abs_tol
    t = spec.t_start
    g0 = generators(np.array([t]))[0]
    y = np.array(y0, dtype=complex).reshape(-1, g0.shape[0])
    # stage s (its derivative) in row s, the derivative at the step's end in
    # the last row; each stage's argument y + h sum_j A[s, j] K_j is built in
    # place
    stages = np.empty((_STAGES + 1,) + y.shape, dtype=complex)
    flat = stages.reshape(_STAGES + 1, -1)
    argument = np.empty_like(y)
    argument_row = argument.reshape(-1)
    np.matmul(y, g0, out=stages[0])

    # scipy's initial step (select_initial_step, error order 7)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(stages[0] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, spec.t_end - t)
    f1 = (y + h0 * stages[0]) @ generators(np.array([t + h0]))[0]
    d2 = _rms((f1 - stages[0]) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT))
    h_abs = min(100 * h0, h1, spec.t_end - t, max_step)

    samples = spec.sample_times()
    snapshots = [y]
    n_steps = 0
    for bound in samples[1:]:
        while t < bound:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = min(max(h_abs, min_step), max_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise ValueError(f"stiffness/tolerance failure in the {kind} solve near "
                                     f"t = {t:.6g} ps")
                t_new = min(t + h_abs, bound)
                h = t_new - t
                h_abs = abs(h)
                gens = generators(t + h * _C[1:])
                y_row = y.reshape(-1)
                for s in range(1, _STAGES):
                    np.dot(_A_ROWS[s], flat[:s], out=argument_row)
                    argument_row *= h
                    argument_row += y_row
                    np.matmul(argument, gens[s - 1], out=stages[s])
                y_new = y + (h * np.dot(_B, flat[:-1])).reshape(y.shape)
                np.matmul(y_new, gens[-1], out=stages[-1])
                n_steps += 1
                scale = (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol).reshape(-1)
                # squared norms as scipy takes them, then Python floats
                err5 = float(np.linalg.norm(np.dot(_E5, flat) / scale) ** 2)
                err3 = float(np.linalg.norm(np.dot(_E3, flat) / scale) ** 2)
                error = (0.0 if err5 == 0.0 and err3 == 0.0
                         else h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * scale.size))
                if error < 1.0:
                    factor = (_MAX_FACTOR if error == 0.0
                              else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                rejected = True
            t, y = t_new, y_new
            stages[0] = stages[-1]
        snapshots.append(y)

    # one evaluation each at the start and for the initial step, then one
    # per stage of every step tried
    return Trajectory(times=samples, states=np.array(snapshots).reshape((-1,) + y0.shape),
                      meta={"n_rhs_evals": 2 + _STAGES * n_steps, "n_steps": n_steps,
                            "rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol})


def _solve(drive: Drive, lift, constant, y0: np.ndarray, spec: PropagationSpec,
           kind: str) -> Trajectory:
    """The adaptive solve of y0 under the drive's generators, with the step
    cap of the module docstring (a constant envelope's width is infinite)."""
    max_step = 0.5 * min((f.width for f, _ in drive.terms), default=np.inf)
    return _dop853(_generators(drive, lift, constant), y0, spec, max_step, kind)


def schrodinger_propagate(drive: Drive, psi0: np.ndarray, spec: PropagationSpec) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi (hbar = 1 units) for one state (5,) or
    for k states stacked along a leading axis (k, 5), all in one solve.

    Snapshots are stored raw; the worst norm drift is recorded in meta and
    bounded in terms of the step count, never silently renormalized.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi0, axis=-1) - 1.0) > 1e-9):
        raise ValueError("initial state must be normalized")
    traj = _solve(drive, lambda h: (-1j * h).T, 0.0, psi0, spec, "state")
    traj.meta["norm_drift"] = float(np.max(np.abs(np.linalg.norm(traj.final(), axis=-1) - 1.0)))
    return traj


def _dissipator_matrix(jump_ops) -> np.ndarray:
    """Constant superoperator of the jump terms, acting on vec(rho)."""
    d = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    ident = np.eye(DIM, dtype=complex)
    for op in jump_ops:
        opd = op.conj().T
        d += np.kron(op, op.conj())
        d -= 0.5 * np.kron(opd @ op, ident)
        d -= 0.5 * np.kron(ident, (opd @ op).conj())
    return d


def _commutator_matrix_t(h: np.ndarray) -> np.ndarray:
    """Transposed superoperator of -i[h, rho] on the row-major vec(rho)."""
    ident = np.eye(DIM, dtype=complex)
    return (-1j * (np.kron(h, ident) - np.kron(ident, h.T))).T


def _checked_densities(traj: Trajectory) -> Trajectory:
    """Re-symmetrize the density snapshots, log the worst Hermiticity
    deviation and trace drift in meta, and raise on an eigenvalue below
    -1e-8."""
    raw = traj.states
    raw_dag = raw.conj().swapaxes(-1, -2)
    traj.states = 0.5 * (raw + raw_dag)
    traces = np.einsum("...ii->...", traj.states).real
    min_eig = float(np.min(np.linalg.eigvalsh(traj.states)))
    if min_eig < -1e-8:
        raise ValueError(f"positivity violation: min eigenvalue {min_eig:.3e}")
    traj.meta.update(hermiticity_deviation=float(np.max(np.abs(raw - raw_dag))),
                     trace_drift=float(np.max(np.abs(traces - traces[0]))),
                     min_eigenvalue=min_eig)
    return traj


def lindblad_propagate(drive: Drive, jump_ops, rho0: np.ndarray,
                       spec: PropagationSpec) -> Trajectory:
    """Integrate the Markovian master equation
    d rho/dt = -i[H, rho] + sum_k (L_k rho L_k+ - {L_k+ L_k, rho}/2)
    over the 5x5 jump operators L_k, for one density (5, 5) or k stacked
    along a leading axis (k, 5, 5).

    Snapshots are re-symmetrized (the worst deviation is logged in meta); the
    trace is monitored and an eigenvalue below -1e-8 raises.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    return _checked_densities(_solve(drive, _commutator_matrix_t,
                                     _dissipator_matrix(jump_ops).T, rho0, spec, "density"))


def _constant_generator(drive: Drive, jump_ops) -> np.ndarray:
    """The transposed 25x25 Liouvillian G of a drive whose envelopes are
    all constant, rows(t) = rows(0) exp(G t)."""
    if not all(isinstance(f, ConstantPulse) for f, _ in drive.terms):
        raise ValueError("an exact solve needs a drive whose envelopes are all constant")
    return _commutator_matrix_t(drive(0.0)) + _dissipator_matrix(jump_ops).T


def semigroup_propagate(drive: Drive, jump_ops, rho0: np.ndarray,
                        spec: PropagationSpec) -> Trajectory:
    """The master equation of ``lindblad_propagate`` under a constant
    drive, solved exactly: each snapshot is the last one times exp(G s) for
    the snapshot interval s, one ``dense_expm`` for the whole strides and
    one more for a last partial stride.  The tolerances go unused."""
    rho0 = np.asarray(rho0, dtype=complex)
    g = _constant_generator(drive, jump_ops)
    times = spec.sample_times()
    steps = np.diff(times)
    whole = dense_expm(spec.record_stride * g) if spec.record_stride > 0.0 else None
    last = whole if steps[-1] == spec.record_stride else dense_expm(steps[-1] * g)
    rows = rho0.reshape(-1, DIM * DIM)
    snapshots = [rows]
    for u in [whole] * (len(steps) - 1) + [last]:
        rows = rows @ u
        snapshots.append(rows)
    states = np.array(snapshots).reshape((-1,) + rho0.shape)
    return _checked_densities(Trajectory(times=times, states=states,
                                         meta={"method": "expm", "n_steps": len(steps)}))


def semigroup_integral(drive: Drive, jump_ops, rho0: np.ndarray,
                       duration: float) -> tuple[Trajectory, np.ndarray]:
    """The exact solve of ``semigroup_propagate`` from 0 to duration, with
    snapshots at both ends, plus the time integral of rho over the window,
    both from one exponential of the augmented generator
    [[L, rho0], [0, 0]] (Van Loan): its upper-right block is the integral
    of exp(L s) rho0."""
    rho0 = np.asarray(rho0, dtype=complex)
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    columns = rho0.reshape(-1, DIM * DIM).T
    n, k = columns.shape
    augmented = np.zeros((n + k, n + k), dtype=complex)
    augmented[:n, :n] = _constant_generator(drive, jump_ops).T
    augmented[:n, n:] = columns
    block = dense_expm(duration * augmented)
    final = (block[:n, :n] @ columns).T.reshape(rho0.shape)
    integral = block[:n, n:].T.reshape(rho0.shape)
    traj = Trajectory(times=np.array([0.0, duration]), states=np.array([rho0, final]),
                      meta={"method": "expm (Van Loan)", "n_steps": 1})
    return _checked_densities(traj), integral


def _midpoint_product(generator_of_t, y0: np.ndarray, t_start: float, t_end: float,
                      n: int) -> np.ndarray:
    """y0 carried over n equal steps, each by exp(step * G) at the step's
    midpoint; the G's of up to _ORACLE_BLOCK steps are exponentiated in one
    batched call (the same Pade per matrix), then applied in order."""
    step = (t_end - t_start) / n
    y = y0
    for first in range(0, n, _ORACLE_BLOCK):
        gs = np.array([generator_of_t(t_start + (k + 0.5) * step)
                       for k in range(first, min(first + _ORACLE_BLOCK, n))])
        for u in dense_expm(step * gs):
            y = y @ u.T
    return y


def oracle_propagate(generator_of_t, y0: np.ndarray, dt: float,
                     t_start: float, t_end: float) -> np.ndarray:
    """Integrate y' = G(t) y from t_start to t_end: the Richardson pair
    (4 u(dt/2) - u(dt)) / 3 of midpoint exponential stepping, fourth order.

    ``generator_of_t(t)`` returns the d x d generator G(t), and y0 is a
    vector (d,) or k rows (k, d), the integrators' layout, returned in the
    same layout.  The coarse step is the largest that divides the window
    into whole steps and does not exceed dt.
    Independent of the adaptive integrators; used to cross-validate them.
    """
    if dt <= 0.0:
        raise ValueError("oracle step must be positive")
    n = max(1, int(np.ceil((t_end - t_start) / dt)))
    y0 = np.asarray(y0, dtype=complex)
    coarse = _midpoint_product(generator_of_t, y0, t_start, t_end, n)
    fine = _midpoint_product(generator_of_t, y0, t_start, t_end, 2 * n)
    return (4.0 * fine - coarse) / 3.0
