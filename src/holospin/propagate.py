"""Time propagation: Schrodinger and Lindblad integrators plus an
independent fourth-order exponential oracle.

The adaptive integrator is an explicit high-order embedded pair
(scipy's DOP853); the stiffness span of the model (drive ~0.5 rad/ps
against decay ~1e-3 /ps) is mild enough for explicit stepping, which the
exponential oracle verifies independently.  The step size is capped at
half the narrowest envelope width of the drive: an error estimate taken
where every field has died out cannot see a pulse that lies wholly inside
one step, so without the cap a solve may step over a lone pulse (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.4).  A constant envelope's width
is infinite, so a drive whose envelopes are all constant runs uncapped.
Each solve takes its relative and absolute tolerances from its
``PropagationSpec`` (absolute: ``ABS_TOL`` unless the spec sets its own)
and records both in ``Trajectory.meta``.

Both integrators take one input (a state (5,) or a density (5, 5)) or a
stack of k along a leading axis ((k, 5) or (k, 5, 5)), and solve
y' = y G(t) with each input as one row y (a density flattened row-major),
through one right-hand side.  They take the Hamiltonian as a
``model.Drive``, and the Lindblad integrator its jump operators as plain
5x5 arrays, stacked once per solve: each term becomes its part of the
transposed generator ((-iK)^T for Schrodinger, the transposed 25x25
commutator superoperator for Lindblad, with the dissipator in the
constant term), so an RHS call is the product of the coefficient vector
[1, f_1(t), ...] with that stack, then one product with the rows.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .model import Drive
from .qcore import DIM, dense_expm


# default absolute tolerance of an adaptive solve (PropagationSpec.abs_tol);
# states and densities are O(1)
ABS_TOL = 1e-12
# oracle steps per batched dense_expm call: in blocks of 1000 a validate run
# peaks at 85 MB (88 MB with each of its 1800- and 3600-step passes in one
# call), and the 25x25 Liouvillian passes over a y gate segment at 0.4/0.2 ps
# peak at 130 MB (436 MB in one call)
_ORACLE_BLOCK = 1000


def check_rel_tol(rel_tol: float) -> float:
    """rel_tol, if it lies in (0, 1e-2]; PropagationSpec and the CLI apply it."""
    if not (0.0 < rel_tol <= 1e-2):
        raise ValueError("tolerances must lie in (0, 1e-2]")
    return rel_tol


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
        check_rel_tol(self.rel_tol)
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


def _solve(rhs, y0: np.ndarray, spec: PropagationSpec, drive: Drive, kind: str) -> Trajectory:
    """One adaptive DOP853 solve for y0 of any shape (rhs maps flat to flat); the
    error norm is an RMS over all of y0, so one step size serves the whole stack."""
    # the step cap of the module docstring; a constant envelope's width is infinite
    max_step = 0.5 * min((f.width for f, _ in drive.terms), default=np.inf)
    sol = solve_ivp(rhs, (spec.t_start, spec.t_end), y0.ravel(), method="DOP853",
                    rtol=spec.rel_tol, atol=spec.abs_tol, max_step=max_step,
                    t_eval=spec.sample_times(), dense_output=False)
    if not sol.success:
        t_fail = sol.t[-1] if sol.t.size else float("nan")
        raise ValueError(f"stiffness/tolerance failure in the {kind} solve near "
                         f"t = {t_fail:.6g} ps")
    # nfev counts every RHS call: 12 per accepted or rejected step, two at the
    # start, and three more for each step whose interpolant yields a snapshot
    return Trajectory(times=sol.t.copy(), states=sol.y.T.reshape((-1,) + y0.shape),
                      meta={"n_rhs_evals": int(sol.nfev), "rel_tol": spec.rel_tol,
                            "abs_tol": spec.abs_tol})


def _stacked_rhs(drive: Drive, lift, constant=0.0):
    """The right-hand side y' = y G(t) of each input row y of a flat stack, with
    G(t) = [1, f_1(t), ...] @ S for the drive's terms stacked once as S, where
    lift maps one 5x5 Hamiltonian term to its part of G and the constant is
    added to the h0 term."""
    parts = [lift(drive.h0) + constant] + [lift(k) for _, k in drive.terms]
    width = parts[0].shape[0]
    stack = np.stack(parts).reshape(len(parts), -1)
    envelopes = [f for f, _ in drive.terms]

    def rhs(t, y):
        coef = np.array([1.0] + [f(t) for f in envelopes], dtype=complex)
        return y.reshape(-1, width).dot(coef.dot(stack).reshape(width, width)).ravel()

    return rhs


def schrodinger_propagate(drive: Drive, psi0: np.ndarray, spec: PropagationSpec) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi (hbar = 1 units) for one state (5,) or
    for k states stacked along a leading axis (k, 5), all in one solve.

    Snapshots are stored raw; the worst norm drift is recorded in meta and
    bounded in terms of the accepted step count, never silently renormalized.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi0, axis=-1) - 1.0) > 1e-9):
        raise ValueError("initial state must be normalized")
    traj = _solve(_stacked_rhs(drive, lambda h: (-1j * h).T), psi0, spec, drive, "state")
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
    rhs = _stacked_rhs(drive, _commutator_matrix_t, _dissipator_matrix(jump_ops).T)
    traj = _solve(rhs, rho0, spec, drive, "density")
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
