import numpy as np
import pytest
from scipy.linalg import expm

from holospin import propagate, pulses, qcore, scenarios
from holospin.model import build_h_y, lindblad_channels
from oracles import liouvillian


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
        np.testing.assert_array_equal(rho[:2, :2], block)

    def test_embed_rejects_unnormalized(self):
        # a qubit density must have unit trace to become a five-level one
        with pytest.raises(ValueError, match="unit trace"):
            qcore.lift_density(np.diag([0.2, 0.2]))

    @pytest.mark.parametrize("stack", [
        qcore.basis_state(3),
        scenarios._INPUT_STACK,
        np.random.default_rng(5).normal(size=(2, 3, 5, 2)) @ [1.0, 1j],
    ], ids=["one_state", "gate_inputs", "stack_2x3"])
    def test_density_from_state_is_the_outer_product(self, stack):
        # a stack of states gives the stack of their densities, each the
        # same products as np.outer, bit for bit
        rho = qcore.density_from_state(stack)
        assert rho.shape == stack.shape + (5,)
        flat = rho.reshape(-1, 5, 5)
        for k, psi in enumerate(np.reshape(stack, (-1, 5))):
            np.testing.assert_array_equal(flat[k], np.outer(psi, psi.conj()))


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

    def test_real_matrix_gives_a_real_result(self, rng):
        m = rng.normal(size=(2, 5, 5))
        out = qcore.dense_expm(m)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, qcore.dense_expm(m.astype(complex)), rtol=0, atol=1e-12)

    def test_rejects_non_finite(self):
        bad = np.zeros((5, 5))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            qcore.dense_expm(bad)


def _made_by(monkeypatch, run) -> list:
    """Every matrix or stack that ``run()`` hands to propagate's dense_expm."""
    made = []
    monkeypatch.setattr(propagate, "dense_expm",
                        lambda m: made.append(m) or qcore.dense_expm(m))
    run()
    monkeypatch.undo()
    return made


def _worst_against_scipy(stacks) -> float:
    return max(float(np.max(np.abs(qcore.dense_expm(m) - expm(m)))) for m in stacks)


class TestDenseExpmAgainstScipy:
    """The batched scaling-and-squaring Pade against scipy's expm
    (Al-Mohy & Higham 2009) on the stacks the package exponentiates."""

    def test_oracle_magnus_exponents(self, params, monkeypatch):
        # the 5x5 exponents of validate's cross-oracle pass (1-norms up to
        # 1.28); measured at most 2.8e-16
        ps = pulses.make_y_pulseset(0.5, 0.5, 0.5, 50.0, 100.0)
        stacks = _made_by(monkeypatch, lambda: propagate.oracle_propagate(
            lambda t: -1j * build_h_y(t, ps, params), qcore.basis_state(1), 1.0,
            *ps.window(margin=4.0)))
        assert len(stacks) == 12 and all(m.shape[1:] == (5, 5) for m in stacks)
        assert _worst_against_scipy(stacks) < 2e-15

    def test_liouvillian_exponents(self, params, rng):
        # the 25x25 generators of the open oracle over a y gate's pulses,
        # times steps of 0.4-1.6 ps (1-norms 0.41-2.96, no squaring);
        # measured at most 4.4e-16
        ps = pulses.make_y_pulseset(0.5, 0.4, 0.3, 150.0, 100.0)
        generator = liouvillian(lambda t: build_h_y(t, ps, params), lindblad_channels(params))
        stack = rng.uniform(0.4, 1.6, (200, 1, 1)) * generator(rng.uniform(-200.0, 200.0, 200))
        assert _worst_against_scipy([stack]) < 2e-15

    def test_van_loan_blocks(self, params, monkeypatch):
        # the real 50x50 blocks of init's 20 ps stride (1-norm 1) and of the
        # 40 ns readout interval (1-norm 161, five squarings); measured at
        # most 4.4e-16 and 2.2e-16
        blocks = _made_by(monkeypatch, lambda: scenarios.run_initialization(
            "sigma_minus", np.diag([0.5, 0.5]), params.gamma, 40000.0, params,
            record_stride=20.0))
        blocks += _made_by(monkeypatch, lambda: scenarios.run_readout(
            np.diag([0.0, 1.0]).astype(complex), 40000.0, params, params.gamma))
        assert [(m.shape, m.dtype) for m in blocks] == [((50, 50), np.float64)] * 2
        assert _worst_against_scipy(blocks) < 2e-15

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_mixed_norms_in_one_stack(self, dtype, rng):
        # 1-norms from 1e-9 to 300 in one stack: entries that need no
        # squaring, and entries that need three and six; each exponential is
        # the one its matrix gets alone, bit for bit.  Measured off scipy,
        # relative to the largest entry: at most 9.3e-16 up to norm 5, and
        # 5.4e-14 at norm 300, where both methods lose digits to the
        # squarings
        m = rng.normal(size=(8, 5, 5)).astype(dtype)
        if dtype is complex:
            m += 1j * rng.normal(size=(8, 5, 5))
        targets = np.array([1e-9, 1e-2, 0.2, 0.9, 2.0, 5.0, 40.0, 300.0])
        m *= (targets / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]
        out = qcore.dense_expm(m)
        assert out.dtype == np.dtype(dtype) and out.shape == m.shape
        reference = expm(m)
        scale = np.maximum(1.0, np.abs(reference).max(axis=(-2, -1)))
        errors = np.abs(out - reference).max(axis=(-2, -1)) / scale
        assert np.all(errors[:6] < 5e-15) and np.all(errors < 5e-13)
        for single, matrix in zip(out, m):
            np.testing.assert_array_equal(single, qcore.dense_expm(matrix))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_at_and_just_above_theta_13(self, dtype, rng):
        # the one branch point: a 1-norm of exactly theta_13 takes no
        # squaring, the next float up and 2 theta_13 one each.  Column 2
        # carries the 1-norm exactly, as two entries that sum without
        # rounding; the other columns stay below theta_13 / 2.  Measured
        # off scipy, relative to the largest entry: at most 1.5e-15
        theta = qcore._THETA_13
        m = rng.normal(size=(3, 5, 5)).astype(dtype)
        if dtype is complex:
            m += 1j * rng.normal(size=(3, 5, 5))
        m *= 0.4 * theta / np.abs(m).sum(axis=-2).max(axis=-1)[:, None, None]
        second = 1j if dtype is complex else -1.0
        for k, target in enumerate([theta, np.nextafter(theta, np.inf), 2.0 * theta]):
            m[k, :, 2] = [target / 2.0, 0.0, second * (target - target / 2.0), 0.0, 0.0]
        assert np.abs(m).sum(axis=-2).max(axis=-1).tolist() == [
            theta, np.nextafter(theta, np.inf), 2.0 * theta]
        out = qcore.dense_expm(m)
        reference = expm(m)
        scale = np.maximum(1.0, np.abs(reference).max(axis=(-2, -1)))
        assert np.all(np.abs(out - reference).max(axis=(-2, -1)) / scale < 5e-13)
        for single, matrix in zip(out, m):
            np.testing.assert_array_equal(single, qcore.dense_expm(matrix))

    def test_non_finite_entry_of_a_stack_raises(self):
        stack = np.zeros((3, 5, 5), dtype=complex)
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qcore.dense_expm(stack)
