"""Complex linear-algebra substrate for the five-level hole-spin system.

Fixed basis order everywhere in this package:

    index 0 -> |0>   heavy-hole spin down
    index 1 -> |1>   heavy-hole spin up
    index 2 -> |a>   ancillary light-hole level
    index 3 -> |e1>  lower conduction-electron level
    index 4 -> |e2>  upper conduction-electron level

States are plain complex ndarrays of length 5, density matrices are 5x5
complex ndarrays.  Qubit gates are 2x2 complex ndarrays acting on the
(|0>, |1>) block.  The one matrix exponential of the package, dense_expm,
exponentiates a matrix or a whole stack in one batched numpy pass; it takes
exactly the matrix (or stack) to exponentiate.
"""

from __future__ import annotations

import numpy as np

DIM = 5
IDX_ZERO, IDX_ONE, IDX_ANC, IDX_E1, IDX_E2 = range(DIM)


def basis_state(index: int) -> np.ndarray:
    """Unit vector along one basis direction."""
    psi = np.zeros(DIM, dtype=complex)
    psi[index] = 1.0
    return psi


def lift_qubit(block: np.ndarray) -> np.ndarray:
    """Place a 2-row array (a qubit state (2,), columns (2, k) or a map
    (2, 2)) on the |0>, |1> rows of the five-level space; zeros elsewhere."""
    block = np.asarray(block, dtype=complex)
    lifted = np.zeros((DIM,) + block.shape[1:], dtype=complex)
    lifted[[IDX_ZERO, IDX_ONE]] = block
    return lifted


def lift_density(block: np.ndarray) -> np.ndarray:
    """The five-level density of a unit-trace 2x2 qubit density block."""
    block = np.asarray(block, dtype=complex)
    if abs(np.trace(block).real - 1.0) > 1e-9:
        raise ValueError("qubit block must have unit trace")
    return lift_qubit(lift_qubit(block.T).T)  # the rows, then the columns


def project_qubit(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Unrenormalized (|0>,|1>) block of a density matrix plus the leakage.

    leakage = 1 - rho_00 - rho_11, so block trace + leakage == 1 for a
    unit-trace input.
    """
    rho = np.asarray(rho, dtype=complex)
    block = rho[:2, :2].copy()
    leakage = float(1.0 - rho[IDX_ZERO, IDX_ZERO].real - rho[IDX_ONE, IDX_ONE].real)
    return block, leakage


def density_from_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3: the
# largest 1-norm at which the degree-13 diagonal Pade approximant of exp is
# accurate to double precision, and its coefficients b_0..b_13
_THETA_13 = 5.371920351148152e0
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _pade13(a: np.ndarray) -> np.ndarray:
    """The degree-13 Pade approximant (V - U)^-1 (V + U) of exp on a stack a,
    with U and V the odd and even parts of sum_j b_j a^j in Higham's
    grouping of its powers (six products).  It is taken as
    I + 2 (V - U)^-1 U, which keeps the part of a result near I that differs
    from I to relative accuracy: on init's 20 ps Van Loan block, whose left
    block steps 2,000 snapshots, 1e-17 off a 40-digit reference where the
    plain quotient is 4.4e-16 off."""
    b = _B
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return ident + 2.0 * np.linalg.solve(v - u, u)


def dense_expm(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix), or of each matrix of a stack (..., d, d), by scaling and
    squaring with Higham's (2005) degree-13 Pade approximant, in one batched
    pass; used as the propagation oracle throughout the package.

    Each matrix is halved s times, the fewest that bring its 1-norm to at
    most theta_13, and its approximant is squared s times.  So each
    exponential is the one its matrix gets alone, bit for bit, whatever else
    the stack holds.  A caller that wants exp(t A) forms the product t * A
    itself; the result keeps the input's number type, real or complex.
    Non-finite input raises ValueError.
    """
    a = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    flat = a.reshape((-1,) + a.shape[-2:])
    norms = np.abs(flat).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.maximum(norms, _THETA_13) / _THETA_13)).astype(int)
    out = _pade13(flat / np.exp2(squarings)[:, None, None])
    for j in range(int(squarings.max(initial=0))):
        more = squarings > j
        out[more] = out[more] @ out[more]
    return out.reshape(a.shape)
