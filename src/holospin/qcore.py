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
is SciPy's; it takes exactly the matrix (or stack) to exponentiate.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

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


def dense_expm(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix), or of each matrix of a stack, by SciPy's
    scaling-and-squaring Pade method (Al-Mohy & Higham 2009); used as the
    propagation oracle throughout the package.  A caller that wants
    exp(t A) forms the product t * A itself.  Non-finite input raises
    ValueError.
    """
    a = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    return expm(a)
