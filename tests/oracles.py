"""Test-only oracles: independent constructions that the package's own
results are checked against."""

import math

import numpy as np

from holospin.qcore import DIM, IDX_ANC, IDX_ONE, dense_expm


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
        u = dense_expm(np.asarray(a, dtype=complex), step) @ u
    return u


def predicted_final_state_z(gamma_f: float, phase: float) -> np.ndarray:
    """Predicted z-protocol output for input |1> at frozen ratio pi/4.

    (1/sqrt2) [ e^{i phase}(sin g + cos g)|1> + (sin g - cos g)|a> ];
    exactly e^{i phase}|1> when the accumulated phase g reaches pi/4.
    """
    psi = np.zeros(DIM, dtype=complex)
    psi[IDX_ONE] = np.exp(1j * phase) * (math.sin(gamma_f) + math.cos(gamma_f)) / math.sqrt(2.0)
    psi[IDX_ANC] = (math.sin(gamma_f) - math.cos(gamma_f)) / math.sqrt(2.0)
    return psi
