"""Time propagation: the adaptive Schrodinger and Lindblad integrators
(``schrodinger_propagate``, ``lindblad_propagate``), the exact solve of a
constant drive, a ``Drive`` without terms (``semigroup_propagate``), and an
independent sixth-order exponential oracle (``oracle_propagate``).

Both integrators run one hand-written DOP853 loop (``_dop853``) on real
rows: a state as real pairs (``_pair_form``), a density as its coordinates
in an orthonormal Hermitian basis (``_hermitian_basis``).  The drive's
stiffness span (~0.5 rad/ps against decay ~1e-3 /ps) is mild enough for
explicit stepping, which the oracle verifies independently.

References: DOP853 and its step control, Hairer, Norsett & Wanner, Solving
ODEs I, secs. II.4-II.5; real coordinates of a Lindblad generator (the
coherence vector), Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286; the block exponential of the exact solve, Van Loan,
IEEE Trans. Autom. Control 23, 395 (1978); the oracle's fourth-order
Magnus step, Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 4,
and Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999), and its
Richardson step, Hairer, Lubich & Wanner, Geometric Numerical Integration,
sec. II.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853
from scipy.linalg import block_diag

from .model import Drive
from . import pulses
from .qcore import DIM, dense_expm


# default absolute tolerance of an adaptive solve (PropagationSpec.abs_tol);
# states and densities are O(1)
ABS_TOL = 1e-12
# oracle steps per generator call and batched dense_expm call.  Measured on
# the benchmark's curves workload: peak RSS 89.6-89.8 MB at 250 (as at 100),
# 90.1-90.2 MB at 500 and 91.1 MB at 1000, validate equally fast at each;
# the 25x25 Liouvillian passes over the y gate at 0.8/0.4 ps peak at 120 MB
# (216 MB at 1000)
_ORACLE_BLOCK = 250
# the oracle's Gauss nodes as fractions of a step, 1/2 -+ sqrt3/6, and the
# weight sqrt3/12 of the commutator in its Magnus exponent
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0

# scipy's DOP853 tableau: stage s sits at t + C[s] h, and C[11] = 1, so the
# last stage and the derivative at the step's end share one generator
_C = DOP853.C
_STAGES = len(_C)
# a step's stage array holds y in row 0 and the derivatives K_0..K_11 below
# it.  Row s - 1 of _TABLEAU weighs rows 0..s into the argument of stage s
# (s = 1..11), its last row rows 0..12 into the step's end; a step of size h
# multiplies it by h and puts 1 on y
_TABLEAU = np.zeros((_STAGES, _STAGES + 1))
_TABLEAU[:-1, 1:] = DOP853.A[1:]
_TABLEAU[-1, 1:] = DOP853.B
# the fifth- and third-order error estimators over K_0..K_11, one product;
# both weigh the derivative at the step's end, K_12, by 0, so an accepted
# step alone computes it, as the next step's K_0
_ERRORS = np.stack([DOP853.E5, DOP853.E3])[:, :-1]
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
        if not -np.inf < self.t_start < self.t_end < np.inf:
            raise ValueError("the window needs finite ends with t_end > t_start")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError("tolerances must lie in (0, 1e-2]")
        # each comparison is false for NaN
        if not 0.0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be a positive finite number")
        if not 0.0 <= self.record_stride < np.inf:
            raise ValueError("record_stride must be a non-negative finite number")

    def sample_times(self) -> np.ndarray:
        if self.record_stride == 0.0:
            return np.array([self.t_start, self.t_end])
        inner = np.arange(self.t_start, self.t_end, self.record_stride)
        # arange may round a last point up to or past t_end
        return np.append(inner[inner < self.t_end], self.t_end)


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


def _hermitian_basis() -> np.ndarray:
    """The rows vec(B_a) (row-major) of the orthonormal Hermitian basis of
    the 5x5 matrices, in this order: the five diagonal units E_ii, then for
    each i < j the pair (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2."""
    basis = np.zeros((DIM * DIM, DIM, DIM), dtype=complex)
    basis[range(DIM), range(DIM), range(DIM)] = 1.0
    half = math.sqrt(0.5)
    pairs = [(i, j) for i in range(DIM) for j in range(i + 1, DIM)]
    for p, (i, j) in enumerate(pairs):
        s = DIM + 2 * p
        basis[s, i, j] = basis[s, j, i] = half
        basis[s + 1, i, j], basis[s + 1, j, i] = 1j * half, -1j * half
    return basis.reshape(DIM * DIM, DIM * DIM)


_BASIS = _hermitian_basis()


def _pair_means(singles: int, pairs: int) -> np.ndarray:
    """For rows of ``singles`` real coordinates, then ``pairs`` pairs: squared
    coordinates times this matrix give each coordinate's squared entry
    modulus, its own square or (x^2 + y^2) / 2 for both x, y of a pair."""
    return block_diag(np.eye(singles), np.kron(np.eye(pairs), np.full((2, 2), 0.5)))


# a state's row is five pairs; a density's its diagonal, then ten pairs
_STATE_MEANS, _DENSITY_MEANS = _pair_means(0, DIM), _pair_means(DIM, DIM * (DIM - 1) // 2)


def _check_shape(x: np.ndarray, single: tuple, what: str) -> None:
    """Raise unless x is one input of shape ``single`` or a stack of k >= 1
    of them along a leading axis."""
    if not (x.shape == single or (x.shape[1:] == single and len(x) > 0)):
        stack = "(k, " + ", ".join(map(str, single)) + ")"
        raise ValueError(f"{what} must have shape {single} or {stack} with k >= 1, "
                         f"not {x.shape}")


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates Tr(B_a rho) (..., 25) of a density (5, 5) or of
    a stack (k, 5, 5).  They keep only the Hermitian part, so a density whose
    anti-Hermitian part exceeds 1e-12, or with an entry that is not finite,
    raises, as does any other shape."""
    rho = np.asarray(rho, dtype=complex)
    _check_shape(rho, (DIM, DIM), "the density")
    # a non-finite entry gives a NaN skew, which fails the check, without
    # the arithmetic, which would warn
    skew = (0.5 * float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))))
            if np.isfinite(rho).all() else math.nan)
    if not skew <= 1e-12:
        raise ValueError("input density is not finite and Hermitian: "
                         f"anti-Hermitian part {skew:.3e}")
    return (rho.reshape(rho.shape[:-2] + (DIM * DIM,)) @ _BASIS.conj().T).real


def _densities(rows: np.ndarray) -> np.ndarray:
    """The densities sum_a r_a B_a of coordinate rows (..., 25).  Both
    rho_ij and rho_ji are (s +- i a)/sqrt2 from the one coordinate pair s, a
    (every other term is an exact zero), so the densities are exactly
    Hermitian."""
    return (rows @ _BASIS).reshape(rows.shape[:-1] + (DIM, DIM))


def _pair_form(g: np.ndarray) -> np.ndarray:
    """The real form of a complex matrix g on rows of (re, im) pairs: each
    entry a + ib becomes the block [[a, b], [-b, a]]."""
    return np.kron(g.real, np.eye(2)) + np.kron(g.imag, [[0.0, 1.0], [-1.0, 0.0]])


def _real(superoperator_t: np.ndarray) -> np.ndarray:
    """Re(V S V+): the transposed superoperator S on rows vec(rho), if it
    maps Hermitian matrices to Hermitian matrices, as the real generator of
    coordinate rows."""
    return (_BASIS @ superoperator_t @ _BASIS.conj().T).real


def _generators(drive: Drive, lift, constant):
    """(times, out) -> the generators G(t) at an array of n times, written
    into out (n, w * w) and returned as its (n, w, w) view, where lift maps
    one 5x5 Hamiltonian term to its w x w part of G and the constant is
    added to the h0 term.

    The drive is stacked once as S: the h0 part, then one row per Gaussian
    component of ``pulses.components``, its amplitude times its coupling's
    part.  G(t) = [1, e_1(t), ...] @ S for the components
    e_j = exp(-((t - c) / width)^2), one exp over every component and time."""
    index, amplitudes, centers, widths = pulses.components([f for f, _ in drive.terms])
    lifted = [lift(coupling) for _, coupling in drive.terms]
    parts = [lift(drive.h0) + constant] + [amplitude * lifted[k]
                                           for k, amplitude in zip(index, amplitudes)]
    width = parts[0].shape[0]
    stack = np.stack(parts).reshape(len(parts), -1)

    # per number of times: the coefficients [1, e_1, ...] and the scratch x
    buffers = {}

    def at(times: np.ndarray, out: np.ndarray) -> np.ndarray:
        if len(times) not in buffers:
            coef = np.ones((len(times), len(parts)))
            buffers[len(times)] = coef.dot, coef[:, 1:], np.empty_like(coef[:, 1:])
        coef_dot, components, x = buffers[len(times)]
        # x as the envelopes compute it, (t - c) / width
        np.subtract(times[:, None], centers, out=x)
        x /= widths
        x *= x
        np.negative(x, out=x)
        np.exp(x, out=components)
        return coef_dot(stack, out=out).reshape(-1, width, width)

    return at


def _rms(x: np.ndarray) -> float:
    """scipy's RMS norm of an array."""
    return float(np.linalg.norm(x)) / x.size ** 0.5


def _dop853(generators, y0: np.ndarray, spec: PropagationSpec, max_step: float,
            kind: str, pair_means: np.ndarray) -> Trajectory:
    """One adaptive DOP853 solve of y' = y G(t) for the real rows of y0,
    written out rather than run through scipy's ``solve_ivp`` because G does
    not depend on y, with scipy's tableau, initial step, error norm and step
    control.  The norm is an RMS over the whole stack, so one step size
    serves every row; each coordinate is scaled in it by the modulus of its
    entry, sqrt((y * y) @ pair_means) for the w x w pair_means of rows of
    width w, so every RMS equals the complex one and a solve without
    snapshots takes solve_ivp's steps.  ``generators(times, out)`` writes G
    at each of the times into rows of the loop's one (11, w * w) buffer, so
    each call overwrites the last, the initial step's two single-time calls
    included.  A record stride clips the steps to the sample times.  Every
    product in the loop is an ``ndarray.dot`` bound once per solve, since
    ``np.dot`` first runs numpy's Python-level dispatcher, which costs about
    as much as a stage's product itself; the error sums err5 and err3 are
    the diagonal of the one Gram product of the two scaled estimates."""
    rtol, atol = max(spec.rel_tol, _REL_TOL_FLOOR), spec.abs_tol
    t = spec.t_start
    width = len(pair_means)
    gens = np.empty((_STAGES - 1, width, width))
    gens_flat = gens.reshape(_STAGES - 1, -1)
    # y in row 0, the derivatives K_0..K_11 below it; each stage's argument
    # y + h sum_j A[s, j] K_j is built in place
    stages = np.empty((_STAGES + 1, np.size(y0) // width, width))
    flat = stages.reshape(_STAGES + 1, -1)
    y = stages[0]
    y[...] = np.reshape(y0, y.shape)
    np.matmul(y, generators(np.array([t]), gens_flat[:1])[0], out=stages[1])

    # scipy's initial step (select_initial_step, error order 7)
    y_moduli = np.sqrt((y * y) @ pair_means)
    scale = atol + y_moduli * rtol
    d0, d1 = _rms(y / scale), _rms(stages[1] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, spec.t_end - t)
    f1 = (y + h0 * stages[1]) @ generators(np.array([t + h0]), gens_flat[:1])[0]
    d2 = _rms((f1 - stages[1]) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT))
    h_abs = min(100 * h0, h1, spec.t_end - t, max_step)

    # every buffer of a step, and each stage's views into them: the product
    # with its weights [1, h A[s]], the rows they weigh, its generator and
    # its derivative's row
    weights = np.ones_like(_TABLEAU)
    step_weights, tableau = weights[:, 1:], _TABLEAU[:, 1:]
    argument, y_new, new_moduli = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    argument_row, y_new_row = argument.reshape(-1), y_new.reshape(-1)
    argument_dot, y_new_dot = argument.dot, y_new.dot
    plan = [(weights[s - 1, :s + 1].dot, flat[:s + 1], gens[s - 1], stages[s + 1])
            for s in range(1, _STAGES)]
    end_dot, derivatives, end_generator = weights[-1].dot, flat[1:], gens[-1]
    squares, scale = np.empty_like(y), np.empty_like(y)
    squares_dot, errors_dot = squares.dot, _ERRORS.dot
    scale_row, scaled = scale.reshape(-1), np.empty((len(_ERRORS), y.size))
    scaled_dot, scaled_t, gram = scaled.dot, scaled.T, np.empty((len(_ERRORS),) * 2)

    samples = spec.sample_times()
    snapshots = [y.copy()]
    n_steps = n_accepted = 0
    for bound in samples[1:]:
        while t < bound:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = min(max(h_abs, min_step), max_step)
            rejected = False
            while True:
                # false for a NaN step too
                if not h_abs >= min_step:
                    raise ValueError(f"stiffness/tolerance failure in the {kind} solve near "
                                     f"t = {t:.6g} ps")
                t_new = min(t + h_abs, bound)
                h = t_new - t
                h_abs = abs(h)
                generators(t + h * _C[1:], gens_flat)
                np.multiply(h, tableau, out=step_weights)
                for weigh, rows, g, derivative in plan:
                    weigh(rows, out=argument_row)
                    argument_dot(g, out=derivative)
                end_dot(flat, out=y_new_row)
                n_steps += 1
                np.multiply(y_new, y_new, out=squares)
                np.sqrt(squares_dot(pair_means, out=new_moduli), out=new_moduli)
                np.maximum(y_moduli, new_moduli, out=scale)
                scale *= rtol
                scale += atol
                np.divide(errors_dot(derivatives, out=scaled), scale_row, out=scaled)
                (err5, _), (_, err3) = scaled_dot(scaled_t, out=gram).tolist()
                error = (0.0 if err5 == 0.0 and err3 == 0.0
                         else h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * scale.size))
                if error < 1.0:
                    factor = (_MAX_FACTOR if error == 0.0
                              else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                rejected = True
            t, y_moduli, new_moduli = t_new, new_moduli, y_moduli
            y[...] = y_new
            # K_12 = y_new G(t + h), the next step's K_0
            y_new_dot(end_generator, out=stages[1])
            n_accepted += 1
        snapshots.append(y.copy())

    # one evaluation each at the start and for the initial step, one per
    # stage of every step tried, and one at the end of every accepted step
    return Trajectory(times=samples, states=np.array(snapshots).reshape((-1,) + np.shape(y0)),
                      meta={"n_rhs_evals": 2 + (_STAGES - 1) * n_steps + n_accepted,
                            "n_steps": n_steps,
                            "rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol})


def _solve(drive: Drive, lift, constant, y0: np.ndarray, spec: PropagationSpec,
           kind: str, pair_means: np.ndarray) -> Trajectory:
    """The adaptive solve of y0 under the drive's generators.  The step is
    capped at half the narrowest envelope width: an error estimate taken
    where every field has died out cannot see a pulse that lies wholly
    inside one step.  A drive without terms runs uncapped."""
    generators = _generators(drive, lift, constant)
    max_step = 0.5 * min((f.width for f, _ in drive.terms), default=np.inf)
    return _dop853(generators, y0, spec, max_step, kind, pair_means)


def schrodinger_propagate(drive: Drive, psi0: np.ndarray, spec: PropagationSpec) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi (hbar = 1 units) for one state (5,) or
    for k states stacked along a leading axis (k, 5), all in one solve.

    Each state runs as the row sqrt2 (Re psi_i, Im psi_i), whose RMS over
    its 10 coordinates is the RMS of its 5 entries.  Snapshots are stored
    raw, never renormalized.  meta["norm_drift"] is the largest
    | ||psi|| - 1 | over the stack's final states, not over every snapshot;
    no run-time check bounds it (the tests hold it under
    10 rel_tol sqrt(n_steps)).  Every input, an earlier segment's output
    included, must be normalized to 1e-9; the error gives the largest
    | ||psi|| - 1 | over the stack.
    """
    psi0 = np.ascontiguousarray(psi0, dtype=complex)
    _check_shape(psi0, (DIM,), "the initial state")
    # the norm of a non-finite entry would warn; its drift reads nan
    drift = (float(np.max(np.abs(np.linalg.norm(psi0, axis=-1) - 1.0)))
             if np.isfinite(psi0).all() else math.nan)
    if not drift <= 1e-9:
        raise ValueError("initial state must be finite and normalized to 1e-9: "
                         f"largest | ||psi|| - 1 | is {drift:.3e}")
    traj = _solve(drive, lambda h: _pair_form((-1j * h).T), 0.0,
                  math.sqrt(2.0) * psi0.view(float), spec, "state", _STATE_MEANS)
    traj.states = traj.states.view(complex) / math.sqrt(2.0)
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


def _open_parts(drive: Drive, jump_ops):
    """The lift of a Hamiltonian term to its part Re(V C(K) V+) of the real
    generator, and the dissipator's part Re(V D^T V+).  Real coordinates
    keep only the Hermitian part of H, so a drive whose h0 or any coupling is
    not exactly Hermitian raises."""
    for h in (drive.h0, *(k for _, k in drive.terms)):
        if not np.array_equal(h, h.conj().T):
            raise ValueError("an open solve needs a Hermitian h0 and Hermitian couplings")
    return (lambda h: _real(_commutator_matrix_t(h))), _real(_dissipator_matrix(jump_ops).T)


def _checked_densities(traj: Trajectory) -> Trajectory:
    """Rebuild the density snapshots from their coordinates, log the trace
    drift and the smallest eigenvalue in meta, and raise on an eigenvalue
    below -1e-8."""
    traj.states = _densities(traj.states)
    traces = np.einsum("...ii->...", traj.states).real
    min_eig = float(np.min(np.linalg.eigvalsh(traj.states)))
    if min_eig < -1e-8:
        raise ValueError(f"positivity violation: min eigenvalue {min_eig:.3e}")
    traj.meta.update(trace_drift=float(np.max(np.abs(traces - traces[0]))),
                     min_eigenvalue=min_eig)
    return traj


def lindblad_propagate(drive: Drive, jump_ops, rho0: np.ndarray,
                       spec: PropagationSpec) -> Trajectory:
    """Integrate the Markovian master equation
    d rho/dt = -i[H, rho] + sum_k (L_k rho L_k+ - {L_k+ L_k, rho}/2)
    over the 5x5 jump operators L_k, for one density (5, 5) or k stacked
    along a leading axis (k, 5, 5), in real coordinates.

    The drive must be Hermitian and each density Hermitian to 1e-12; the
    trace is monitored and an eigenvalue below -1e-8 raises.
    """
    lift, dissipator = _open_parts(drive, jump_ops)
    return _checked_densities(_solve(drive, lift, dissipator, _coordinates(rho0), spec,
                                     "density", _DENSITY_MEANS))


def semigroup_propagate(drive: Drive, jump_ops, rho0: np.ndarray, duration: float,
                        record_stride: float) -> tuple[Trajectory, np.ndarray]:
    """The master equation of ``lindblad_propagate`` under a constant drive,
    a ``Drive`` without terms whose h0 is the whole Hamiltonian, solved
    exactly from 0 to duration at ``PropagationSpec``'s sample times, and
    the time integral of rho over the window.

    For a snapshot interval s and the real generator G of the coordinate
    rows, exp([[sG, I], [0, 0]]) holds exp(sG) in its left block and
    phi_1(sG), the integral of exp(uG) over (0, s) divided by s, in its
    right one.  The left block steps the rows; s times the right block,
    applied to each interval's starting rows and summed over the intervals,
    gives the integral.  One ``dense_expm`` serves the whole strides, if one
    fits, and one more a last partial stride.  The identity block is not
    scaled by s: exp(s [[G, I], [0, 0]]) would take more squarings, and on
    a 40 ns readout its driven population was 3.9e-15 off a 40-digit
    reference, against 2e-19."""
    times = PropagationSpec(0.0, duration, record_stride=record_stride).sample_times()
    rows = _coordinates(rho0)
    if drive.terms:
        raise ValueError("an exact solve needs a constant drive: no terms, its h0 the "
                         "whole Hamiltonian")
    lift, dissipator = _open_parts(drive, jump_ops)
    g = lift(drive.h0) + dissipator
    n = len(g)

    def interval(s):
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n], block[:n, n:] = s * g, np.eye(n)
        u = dense_expm(block)
        return u[:n, :n].copy(), s * u[:n, n:]

    steps = np.diff(times)
    whole = interval(record_stride) if 0.0 < record_stride <= duration else None
    last = whole if steps[-1] == record_stride else interval(steps[-1])
    snapshots = [rows]
    for step, _ in [whole] * (len(steps) - 1) + [last]:
        snapshots.append(snapshots[-1].dot(step))
    snapshots = np.array(snapshots)
    # the whole strides share one part, so their starting rows are summed
    # before the product
    integral = snapshots[-2] @ last[1]
    if len(steps) > 1:
        integral += snapshots[:-2].sum(axis=0) @ whole[1]
    traj = Trajectory(times=times, states=snapshots,
                      meta={"method": "expm", "n_steps": len(steps)})
    return _checked_densities(traj), _densities(integral)


def _magnus_product(generator_of_t, y0: np.ndarray, t_start: float, t_end: float,
                    n: int) -> np.ndarray:
    """y0 carried over n equal steps of size h, each by exp(Omega) with the
    fourth-order Magnus exponent Omega = h (A1 + A2) / 2 + (sqrt3 / 12) h^2
    [A2, A1] of the generators A1, A2 at the step's two Gauss nodes.  For up
    to _ORACLE_BLOCK steps at a time, each node's generators come from one
    call on the array of its times, the commutators from one batched
    product and the exponentials from one ``dense_expm`` call; they are
    then applied in order."""
    step = (t_end - t_start) / n
    y = y0
    for first in range(0, n, _ORACLE_BLOCK):
        steps = np.arange(first, min(first + _ORACLE_BLOCK, n))
        a1, a2 = (generator_of_t(t_start + (steps + node) * step) for node in _GAUSS_NODES)
        omega = (0.5 * step) * (a1 + a2) + (_COMMUTATOR * step * step) * (a2 @ a1 - a1 @ a2)
        for u in dense_expm(omega):
            y = y @ u.T
    return y


def oracle_propagate(generator_of_t, y0: np.ndarray, dt: float,
                     t_start: float, t_end: float) -> np.ndarray:
    """Integrate y' = G(t) y from t_start to t_end: the Richardson pair
    (16 u(dt/2) - u(dt)) / 15 of fourth-order Magnus stepping.  The Magnus
    step at the Gauss nodes is symmetric, so its error holds even powers of
    dt only, and the pair is sixth order.

    ``generator_of_t(times)`` returns the d x d generators G(t) at a 1-D
    array of times as one (n, d, d) array, and y0 is a vector (d,) or k rows
    (k, d), the integrators' layout, returned in the same layout.  The coarse
    step is the largest that divides the window into whole steps and does
    not exceed dt.
    Independent of the adaptive integrators; used to cross-validate them.
    """
    if not (dt > 0.0 and t_end > t_start):
        raise ValueError("oracle step and window must be positive")
    n = max(1, int(np.ceil((t_end - t_start) / dt)))
    y0 = np.asarray(y0, dtype=complex)
    coarse = _magnus_product(generator_of_t, y0, t_start, t_end, n)
    fine = _magnus_product(generator_of_t, y0, t_start, t_end, 2 * n)
    return (16.0 * fine - coarse) / 15.0
