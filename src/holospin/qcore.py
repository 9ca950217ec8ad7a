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
is SciPy's.
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


def embed_qubit(alpha: complex, beta: complex) -> np.ndarray:
    """Lift qubit amplitudes (alpha, beta) into the five-level space."""
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("qubit amplitudes are not normalized")
    psi = np.zeros(DIM, dtype=complex)
    psi[IDX_ZERO] = alpha
    psi[IDX_ONE] = beta
    return psi


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


def dense_expm(matrix: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * matrix) by SciPy's scaling-and-squaring Pade method
    (Al-Mohy & Higham 2009); used as the propagation oracle throughout the
    package.  Non-finite input raises ValueError.
    """
    a = np.asarray(matrix, dtype=complex)
    if not (np.all(np.isfinite(a)) and np.isfinite(scale)):
        raise ValueError("matrix exponential of non-finite input")
    return expm(scale * a)
