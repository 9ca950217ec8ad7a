import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospin import qcore


def random_states():
    return st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=5, max_size=5).map(np.array)


class TestEmbedProject:
    def test_embed_basis(self):
        np.testing.assert_array_equal(qcore.lift_qubit([1, 0]), qcore.basis_state(0))
        np.testing.assert_array_equal(qcore.lift_qubit([0, 1]), qcore.basis_state(1))

    def test_embed_superposition(self):
        psi = qcore.lift_qubit(np.array([1, 1j]) / np.sqrt(2))
        np.testing.assert_allclose(psi[:2], [1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert np.all(psi[2:] == 0)

    def test_lift_columns_and_map(self):
        # each column of a (2, k) block, and each column of a 2x2 map, lands
        # on the |0>, |1> rows of its own column
        block = np.array([[1, 2, 3], [4j, 5j, 6j]])
        lifted = qcore.lift_qubit(block)
        assert lifted.shape == (5, 3)
        for k in range(3):
            np.testing.assert_array_equal(lifted[:, k], qcore.lift_qubit(block[:, k]))
        gate = np.array([[0, 1], [1, 0]])
        np.testing.assert_array_equal(qcore.lift_qubit(gate) @ [1, 0], qcore.basis_state(1))

    def test_lift_density_projects_back(self):
        block = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        rho = qcore.lift_density(block)
        assert rho.shape == (5, 5)
        assert not rho[2:].any() and not rho[:, 2:].any()
        back, leak = qcore.project_qubit(rho)
        np.testing.assert_array_equal(back, block)
        assert leak == 0.0

    def test_embed_rejects_unnormalized(self):
        # a qubit density must have unit trace to become a five-level one
        with pytest.raises(ValueError, match="unit trace"):
            qcore.lift_density(np.diag([0.2, 0.2]))

    def test_project_pure_zero(self):
        block, leak = qcore.project_qubit(np.diag([1.0, 0, 0, 0, 0]).astype(complex))
        np.testing.assert_allclose(block, np.diag([1.0, 0]))
        assert leak == pytest.approx(0.0, abs=1e-15)

    def test_project_ancilla(self):
        block, leak = qcore.project_qubit(np.diag([0, 0, 1.0, 0, 0]).astype(complex))
        assert np.all(block == 0)
        assert leak == pytest.approx(1.0)

    def test_project_half_excited(self):
        rho = np.diag([0.5, 0, 0, 0.5, 0]).astype(complex)
        block, leak = qcore.project_qubit(rho)
        np.testing.assert_allclose(block, np.diag([0.5, 0]))
        assert leak == pytest.approx(0.5)

    @settings(deadline=None)
    @given(random_states())
    def test_block_trace_plus_leakage(self, vec):
        if np.linalg.norm(vec) < 1e-6:
            return
        rho = qcore.density_from_state(vec / np.linalg.norm(vec))
        block, leak = qcore.project_qubit(rho)
        assert abs(np.trace(block).real + leak - 1.0) < 1e-9


class TestDenseExpm:
    def test_zero_matrix(self):
        np.testing.assert_allclose(qcore.dense_expm(np.zeros((5, 5))), np.eye(5))

    def test_diagonal(self):
        d = np.array([0.3, -1.2, 0.0, 2.0, -0.7])
        out = qcore.dense_expm(1.7 * (-1j * np.diag(d)))
        np.testing.assert_allclose(out, np.diag(np.exp(-1j * d * 1.7)), atol=1e-14)

    def test_sigma_x_block_closed_form(self):
        # exp(-i t sx) on the (|0>,|1>) block = cos t - i sin t sx, identity elsewhere
        m = np.zeros((5, 5), dtype=complex)
        m[0, 1] = m[1, 0] = -1j
        t = 0.83
        out = qcore.dense_expm(t * m)
        expect = np.eye(5, dtype=complex)
        expect[0, 0] = expect[1, 1] = np.cos(t)
        expect[0, 1] = expect[1, 0] = -1j * np.sin(t)
        np.testing.assert_allclose(out, expect, atol=1e-13)

    def test_semigroup_and_unitarity(self, rng):
        for _ in range(20):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            m = 0.5 * (m - m.conj().T)
            t1, t2 = rng.uniform(0.1, 2.0, size=2)
            left = qcore.dense_expm(t1 * m) @ qcore.dense_expm(t2 * m)
            right = qcore.dense_expm((t1 + t2) * m)
            assert np.max(np.abs(left - right)) < 1e-10
            u = qcore.dense_expm(t1 * m)
            assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10

    def test_rejects_non_finite(self):
        bad = np.zeros((5, 5))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            qcore.dense_expm(bad)

