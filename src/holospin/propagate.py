"""Time propagation: Schrodinger and Lindblad integrators plus an
independent piecewise-constant exponential oracle.

The adaptive integrator is an explicit high-order embedded pair
(scipy's DOP853); the stiffness span of the model (drive ~0.5 rad/ps
against decay ~1e-3 /ps) is mild enough that explicit stepping with a
max-step cap resolves everything, which the exponential oracle verifies
independently.

Both integrators take the Hamiltonian as ``h_of_t``, and the type of that
argument alone picks the right-hand side.  A ``model.Drive`` is stacked
once per solve: each term becomes the generator of the equation (-iK for
Schrodinger, the transposed 25x25 commutator superoperator for Lindblad,
with the dissipator in the constant term), so an RHS call is the product
of the coefficient vector [1, f_1(t), ...] with that stack, then one
product with the states.  Any other callable is called on every RHS
evaluation and must return the 5x5 H(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .model import Drive, LindbladChannel
from .qcore import DIM, dense_expm


@dataclass(frozen=True)
class PropagationSpec:
    """Integration window, tolerances, and snapshot cadence."""

    t_start: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    record_stride: float = 0.0   # 0 -> endpoints only

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        for tol in (self.rel_tol, self.abs_tol):
            if not (0.0 < tol <= 1e-2):
                raise ValueError("tolerances must lie in (0, 1e-2]")
        if self.max_step <= 0.0:
            raise ValueError("max_step must be positive")
        if self.record_stride < 0.0:
            raise ValueError("record_stride must be non-negative")

    def sample_times(self) -> np.ndarray:
        if self.record_stride == 0.0:
            return np.array([self.t_start, self.t_end])
        inner = np.arange(self.t_start, self.t_end, self.record_stride)
        return np.unique(np.concatenate([inner, [self.t_end]]))


@dataclass
class Trajectory:
    """Snapshots of a propagation: times plus states (n, 5), or (n, 5, k) for
    k stacked columns, or densities (n, 5, 5), or (n, k, 5, 5) for a stack."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.states[-1]


def _solve(rhs, y0: np.ndarray, spec: PropagationSpec, kind: str) -> Trajectory:
    """One adaptive DOP853 solve for y0 of any shape (rhs maps flat to flat); the
    error norm is an RMS over all of y0, so one step size serves the whole stack."""
    sol = solve_ivp(rhs, (spec.t_start, spec.t_end), y0.ravel(), method="DOP853",
                    rtol=spec.rel_tol, atol=spec.abs_tol, max_step=spec.max_step,
                    t_eval=spec.sample_times(), dense_output=False)
    if sol.status == -1 or not sol.success:
        t_fail = sol.t[-1] if sol.t.size else float("nan")
        raise ValueError(f"stiffness/tolerance failure in the {kind} solve near "
                         f"t = {t_fail:.6g} ps")
    # DOP853 makes 12 RHS calls per accepted or rejected step, plus two at the
    # start (the initial derivative and the step-size probe); the dense-output
    # interpolant adds three for each step that holds a snapshot, which the
    # floor absorbs only while at most three steps hold one (endpoints only)
    return Trajectory(times=sol.t.copy(), states=sol.y.T.reshape((-1,) + y0.shape),
                      meta={"n_rhs_evals": int(sol.nfev), "n_steps": (int(sol.nfev) - 2) // 12})


def _stacked_generator(drive: Drive, lift, constant=0.0):
    """G(t) = [1, f_1(t), ...] @ S for the drive's terms stacked once as S, where
    lift maps one 5x5 Hamiltonian term to its part of the generator and the
    constant is added to the h0 term."""
    parts = [lift(drive.h0) + constant] + [lift(k) for _, k in drive.terms]
    shape = parts[0].shape
    stack = np.stack(parts).reshape(len(parts), -1)
    envelopes = [f for f, _ in drive.terms]

    def generator(t):
        coef = np.array([1.0] + [f(t) for f in envelopes], dtype=complex)
        return coef.dot(stack).reshape(shape)

    return generator


def schrodinger_propagate(h_of_t, psi0: np.ndarray, spec: PropagationSpec) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi (hbar = 1 units) for one state (5,) or
    for k states stacked as columns (5, k), all in one solve.

    Snapshots are stored raw; the worst norm drift is recorded in meta and
    bounded in terms of the accepted step count, never silently renormalized.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi0, axis=0) - 1.0) > 1e-9):
        raise ValueError("initial state must be normalized")

    if isinstance(h_of_t, Drive):
        generator = _stacked_generator(h_of_t, lambda h: -1j * h)

        def rhs(t, y):
            return generator(t).dot(y.reshape(psi0.shape)).ravel()
    else:
        def rhs(t, y):
            return -1j * h_of_t(t).dot(y.reshape(psi0.shape)).ravel()

    traj = _solve(rhs, psi0, spec, "state")
    traj.meta["norm_drift"] = float(np.max(np.abs(np.linalg.norm(traj.final(), axis=0) - 1.0)))
    return traj


def _dissipator_matrix(channels: list[LindbladChannel]) -> np.ndarray:
    """Constant superoperator of the jump terms, acting on vec(rho)."""
    d = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    ident = np.eye(DIM, dtype=complex)
    for ch in channels:
        op = ch.matrix()
        opd = op.conj().T
        d += np.kron(op, op.conj())
        d -= 0.5 * np.kron(opd @ op, ident)
        d -= 0.5 * np.kron(ident, (opd @ op).conj())
    return d


def _commutator_matrix_t(h: np.ndarray) -> np.ndarray:
    """Transposed superoperator of -i[h, rho] on the row-major vec(rho)."""
    ident = np.eye(DIM, dtype=complex)
    return (-1j * (np.kron(h, ident) - np.kron(ident, h.T))).T


def lindblad_propagate(h_of_t, channels: list[LindbladChannel], rho0: np.ndarray,
                       spec: PropagationSpec) -> Trajectory:
    """Integrate the Markovian master equation
    d rho/dt = -i[H, rho] + sum_k (L rho L+ - {L+L, rho}/2)
    for one density (5, 5) or k stacked along a leading axis (k, 5, 5).

    Snapshots are re-symmetrized (the worst deviation is logged in meta); the
    trace is monitored and an eigenvalue below -1e-8 raises.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dmat_t = _dissipator_matrix(channels).T
    vec_shape = rho0.shape[:-2] + (DIM * DIM,)

    if isinstance(h_of_t, Drive):
        generator = _stacked_generator(h_of_t, _commutator_matrix_t, dmat_t)

        def rhs(t, y):
            return y.reshape(vec_shape).dot(generator(t)).ravel()
    else:
        def rhs(t, y):
            rho = y.reshape(rho0.shape)
            h = h_of_t(t)
            out = -1j * (h @ rho - rho @ h)
            out += y.reshape(vec_shape).dot(dmat_t).reshape(rho0.shape)
            return out.ravel()

    traj = _solve(rhs, rho0, spec, "density")
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


def oracle_propagate(h_of_t, psi0: np.ndarray, dt: float,
                     t_start: float, t_end: float) -> np.ndarray:
    """Midpoint piecewise-constant exponential stepping (second order).

    Independent of the adaptive integrator; used to cross-validate it.
    """
    if dt <= 0.0:
        raise ValueError("oracle step must be positive")
    n = max(1, int(np.ceil((t_end - t_start) / dt)))
    step = (t_end - t_start) / n
    psi = np.asarray(psi0, dtype=complex).copy()
    for k in range(n):
        t_mid = t_start + (k + 0.5) * step
        psi = dense_expm(-1j * h_of_t(t_mid), step) @ psi
    return psi
