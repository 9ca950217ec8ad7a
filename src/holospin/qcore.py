"""Complex linear-algebra substrate for the five-level hole-spin system.

Fixed basis order everywhere in this package:

    index 0 -> |0>   heavy-hole spin down
    index 1 -> |1>   heavy-hole spin up
    index 2 -> |a>   ancillary light-hole level
    index 3 -> |e1>  lower conduction-electron level
    index 4 -> |e2>  upper conduction-electron level

States are plain complex ndarrays of length 5, density matrices are 5x5
complex ndarrays.  Qubit gates are 2x2 complex ndarrays acting on the
(|0>, |1>) block.
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


# Pade-13 coefficients for the scaling-and-squaring matrix exponential.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
# ||A||_1 below which a single Pade-13 step holds double precision.
_PADE13_THETA = 5.371920351148152


def dense_expm(matrix: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * matrix) by Pade-13 with scaling and squaring.

    Accurate to ~1e-13 relative for ||scale * matrix|| up to order 10;
    used as the propagation oracle throughout the package.
    """
    a = np.asarray(matrix, dtype=complex)
    if not (np.all(np.isfinite(a)) and np.isfinite(scale)):
        raise ValueError("matrix exponential of non-finite input")
    a = a * scale
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    n_squarings = max(0, int(np.ceil(np.log2(norm / _PADE13_THETA)))) if norm > _PADE13_THETA else 0
    a = a / (2.0 ** n_squarings)

    b = _PADE13
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(n_squarings):
        r = r @ r
    return r
