"""Test-only oracles: independent constructions that the package's own
results are checked against."""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from holospin.qcore import DIM, IDX_ANC, IDX_ONE

# the 25 matrix units E_j of the 5x5 densities, vec(E_j) the j-th unit
# vector in row-major order
_UNITS = np.eye(DIM * DIM, dtype=complex).reshape(DIM * DIM, DIM, DIM)
# the units side by side, [E_0 | E_1 | ...] (5, 125), and one above the
# other (125, 5): H [E_0 | E_1 | ...] and [E_0; E_1; ...] H hold every
# product H E_j and E_j H in one matrix product each
_UNITS_ROW = _UNITS.transpose(1, 0, 2).reshape(DIM, DIM ** 3)
_UNITS_COLUMN = _UNITS.reshape(DIM ** 3, DIM)


def path_ordered_exponential(samples) -> np.ndarray:
    """Ordered product of exp(A_k * step_k), later samples applied later.

    ``samples`` is an iterable of (matrix, step) pairs in path order; each
    matrix is a (2x2) connection sample, each step the parameter increment.
    Refining the partition converges at second order in the step.
    """
    u = np.eye(2, dtype=complex)
    for a, step in samples:
        if step <= 0.0:
            raise ValueError("path steps must be positive")
        u = expm(step * np.asarray(a, dtype=complex)) @ u
    return u


def average_fidelity(image, target) -> float:
    """Closed-form average fidelity of a qubit map E against the unitary U:

        F = (sum_a tr Phi(E_aa) + sum_ab <a|Phi(E_ab)|b>) / 6,  Phi = U^dag E(.) U

    with E_ab = |a><b|, and ``image(a, b)`` returning E(E_ab).  F is linear
    in E, so it holds for trace-decreasing (leaky) maps too.
    """
    u = np.asarray(target, dtype=complex)
    phi = [[u.conj().T @ image(a, b) @ u for b in range(2)] for a in range(2)]
    total = (sum(np.trace(phi[a][a]) for a in range(2))
             + sum(phi[a][b][a, b] for a in range(2) for b in range(2)))
    return float(total.real) / 6.0


def liouvillian(h_of_t, jump_ops):
    """t -> the 25x25 generator L(t) of the master equation on the row-major
    vec(rho), for the Hamiltonian h_of_t(t) and the 5x5 jump operators; at
    an array of times, h_of_t returns (..., 5, 5) and the generators come as
    (..., 25, 25).

    Column j of L(t) is the image of the j-th matrix unit E under the matrix
    form -i[H(t), E] + sum_k (L_k E L_k^+ - {L_k^+ L_k, E}/2), so no
    Kronecker product or drive template enters.  The dissipative images are
    built once; the commutator takes two matrix products per time, over the
    25 units side by side and stacked.
    """
    dissipation = sum(op @ _UNITS @ op.conj().T
                      - 0.5 * (op.conj().T @ op @ _UNITS + _UNITS @ op.conj().T @ op)
                      for op in jump_ops)

    def generator(t):
        h = np.asarray(h_of_t(t))
        shape = h.shape[:-2] + (DIM * DIM, DIM, DIM)
        h_units = (h @ _UNITS_ROW).reshape(h.shape[:-2] + (DIM, DIM * DIM, DIM)).swapaxes(-3, -2)
        units_h = (_UNITS_COLUMN @ h).reshape(shape)
        images = -1j * (h_units - units_h) + dissipation
        return images.reshape(shape[:-3] + (DIM * DIM, DIM * DIM)).swapaxes(-1, -2)

    return generator


def _hermitian_basis() -> np.ndarray:
    """The 25 orthonormal Hermitian 5x5 matrices B_a of the open solvers'
    real coordinates, in their documented order: the diagonal units E_ii,
    then for each i < j the pair (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2."""
    basis = [_UNITS[DIM * i + i] for i in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            e_ij, e_ji = _UNITS[DIM * i + j], _UNITS[DIM * j + i]
            basis += [(e_ij + e_ji) / math.sqrt(2.0), 1j * (e_ij - e_ji) / math.sqrt(2.0)]
    return np.array(basis)


HERMITIAN_BASIS = _hermitian_basis()


def coordinates(rho) -> np.ndarray:
    """The real coordinates Tr(B_a rho) (..., 25) of a 5x5 matrix or of a
    stack (..., 5, 5)."""
    return np.einsum("aji,...ij->...a", HERMITIAN_BASIS, rho).real


def coordinate_liouvillian(h_of_t, jump_ops):
    """t -> the real 25x25 generator of the master equation on coordinate
    columns, for the Hamiltonian h_of_t(t) and the 5x5 jump operators.

    Column a holds the coordinates Tr(B_b .) of the image of B_a under the
    matrix form -i[H(t), B] + sum_k (L_k B L_k^+ - {L_k^+ L_k, B}/2), so no
    change-of-basis product, Kronecker product or drive template enters.
    """
    basis = HERMITIAN_BASIS
    dissipation = sum(op @ basis @ op.conj().T
                      - 0.5 * (op.conj().T @ op @ basis + basis @ op.conj().T @ op)
                      for op in jump_ops)

    def generator(t):
        h = h_of_t(t)
        return coordinates(-1j * (h @ basis - basis @ h) + dissipation).T

    return generator


def theta_rate(pulses, t: float) -> float:
    """d theta / dt from the envelope methods, by the exact ratio formula
    (omega_s' omega_d - omega_s omega_d') / (omega_s^2 + omega_d^2); 0 where
    both fields have vanished."""
    om_s = pulses.stokes(t)
    om_d = pulses.driving(t)
    denom = om_s * om_s + om_d * om_d
    if denom == 0.0:
        return 0.0
    return (pulses.stokes.derivative(t) * om_d - om_s * pulses.driving.derivative(t)) / denom


def sin_phi_y(pulses, t: float) -> float:
    """sin of the pump mixing angle from the envelope methods; 0 outside the
    pulse support."""
    om_p = pulses.pump(t)
    norm = math.sqrt(om_p ** 2 + pulses.stokes(t) ** 2 + pulses.driving(t) ** 2)
    if norm == 0.0:
        return 0.0
    return om_p / norm


def sin_phi_z(pulses, t: float, delta: float) -> float:
    """sin of the Zeeman mixing angle from the envelope methods; 1 outside
    the pulse support."""
    half = delta / 2.0
    return half / math.hypot(half, math.sqrt(2.0) * math.hypot(pulses.stokes(t), pulses.driving(t)))


def predicted_final_state_z(gamma_f: float, phase: float) -> np.ndarray:
    """Predicted z-protocol output for input |1> at frozen ratio pi/4.

    (1/sqrt2) [ e^{i phase}(sin g + cos g)|1> + (sin g - cos g)|a> ];
    exactly e^{i phase}|1> when the accumulated phase g reaches pi/4.
    """
    psi = np.zeros(DIM, dtype=complex)
    psi[IDX_ONE] = np.exp(1j * phase) * (math.sin(gamma_f) + math.cos(gamma_f)) / math.sqrt(2.0)
    psi[IDX_ANC] = (math.sin(gamma_f) - math.cos(gamma_f)) / math.sqrt(2.0)
    return psi


def dop853_reference(generator_of_t, y0, t_start: float, t_end: float, rel_tol: float,
                     abs_tol: float, max_step: float):
    """scipy's ``solve_ivp(method="DOP853")`` on y' = y G(t) for the rows of
    y0, with G(t) = ``generator_of_t(t)``: the final rows and the numbers of
    steps tried and accepted.  With no snapshots asked for, solve_ivp makes
    no dense output, so its RHS count is two plus twelve per step tried."""
    y0 = np.asarray(y0, dtype=complex)
    width = generator_of_t(t_start).shape[0]

    def rhs(t, y):
        return (y.reshape(-1, width) @ generator_of_t(t)).ravel()

    sol = solve_ivp(rhs, (t_start, t_end), y0.ravel(), method="DOP853", rtol=rel_tol,
                    atol=abs_tol, max_step=max_step)
    if not sol.success:
        raise ValueError(sol.message)
    steps, rest = divmod(sol.nfev - 2, 12)
    assert rest == 0
    return sol.y[:, -1].reshape(y0.shape), steps, len(sol.t) - 1
