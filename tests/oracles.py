"""Test-only oracles: independent constructions that the package's own
results are checked against."""

import math

import numpy as np

from holospin.qcore import DIM, IDX_ANC, IDX_ONE, dense_expm

# the 25 matrix units E_j of the 5x5 densities, vec(E_j) the j-th unit
# vector in row-major order
_UNITS = np.eye(DIM * DIM, dtype=complex).reshape(DIM * DIM, DIM, DIM)


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
        u = dense_expm(step * np.asarray(a, dtype=complex)) @ u
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
    vec(rho), for the Hamiltonian h_of_t(t) and the 5x5 jump operators.

    Column j of L(t) is the image of the j-th matrix unit E under the matrix
    form -i[H(t), E] + sum_k (L_k E L_k^+ - {L_k^+ L_k, E}/2), so no
    Kronecker product or drive template enters.  The dissipative images are
    built once; the commutator takes one batched product over the 25 units.
    """
    dissipation = sum(op @ _UNITS @ op.conj().T
                      - 0.5 * (op.conj().T @ op @ _UNITS + _UNITS @ op.conj().T @ op)
                      for op in jump_ops)

    def generator(t):
        h = h_of_t(t)
        images = -1j * (h @ _UNITS - _UNITS @ h) + dissipation
        return images.reshape(DIM * DIM, DIM * DIM).T

    return generator


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
