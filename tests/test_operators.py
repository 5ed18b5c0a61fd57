import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave.operators import (
    BranchCutWarning,
    expm_hermitian,
    frobenius_magnitude,
    principal_eigenphases,
    spectral_norm,
    unitary_root,
)
from spinweave.spins import SIGMA

from conftest import random_hermitian, random_unitary


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        for t in (0.0, 1e-6, 3.7):
            assert np.allclose(expm_hermitian(np.zeros((4, 4)), t), np.eye(4), atol=1e-15)

    def test_pi_rotation_closed_form(self):
        # exp(-i pi S_x) = cos(pi/2) I - i sin(pi/2) sigma_x = -i sigma_x
        u = expm_hermitian(SIGMA["x"] / 2, np.pi)
        assert np.allclose(u, -1j * SIGMA["x"], atol=1e-14)

    @given(st.integers(0, 10_000))
    def test_unitarity(self, seed):
        h = random_hermitian(seed, 8)
        t = np.random.default_rng(seed + 1).uniform(0, 10)
        u = expm_hermitian(h, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12 * 8

    @given(st.integers(0, 10_000))
    def test_group_law(self, seed):
        h = random_hermitian(seed, 4)
        r = np.random.default_rng(seed).uniform(0.1, 2.0, size=2)
        combined = expm_hermitian(h, r[0] + r[1])
        product = expm_hermitian(h, r[0]) @ expm_hermitian(h, r[1])
        assert np.linalg.norm(combined - product) < 1e-11

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(bad, 1.0)


class TestUnitaryRoot:
    def test_first_root_is_input(self):
        u = random_unitary(3, 4)
        assert np.array_equal(unitary_root(u, 1), u)

    def test_scalar_phase(self):
        u = np.exp(1j * np.pi / 2) * np.eye(4, dtype=complex)
        root = unitary_root(u, 2)
        assert np.allclose(root, np.exp(1j * np.pi / 4) * np.eye(4), atol=1e-12)

    @given(st.integers(0, 5_000), st.integers(1, 72))
    def test_reexponentiation(self, seed, m):
        u = random_unitary(seed, 8)
        root = unitary_root(u, m)
        assert np.linalg.norm(np.linalg.matrix_power(root, m) - u) < 1e-9

    def test_branch_cut_flagged(self):
        theta = np.pi - 1e-12
        u = np.diag(np.exp(1j * np.array([theta, -theta, 0.1, 0.2])))
        with pytest.warns(BranchCutWarning):
            unitary_root(u, 2)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_root(2.0 * np.eye(4), 2)

    @pytest.mark.parametrize("m", [0, -2, 2.5])
    def test_rejects_bad_root_order(self, m):
        with pytest.raises(ValueError, match="root order"):
            unitary_root(random_unitary(4, 4), m)
        with pytest.raises(ValueError, match="root order"):
            principal_eigenphases(np.ones(4), m)

    def test_principal_phases_put_minus_pi_on_pi(self):
        lam = np.array([complex(-1.0, -0.0), 1j, -1j])  # np.angle gives -pi first
        assert np.array_equal(principal_eigenphases(lam, 1), [np.pi, np.pi / 2, -np.pi / 2])


class TestFrobeniusMagnitude:
    def test_zero(self):
        assert frobenius_magnitude(np.zeros((4, 4))) == 0.0

    def test_identity(self):
        assert frobenius_magnitude(np.eye(4)) == pytest.approx(2.0, abs=1e-15)

    def test_two_spin_dipolar_eigenvalue_oracle(self):
        # sqrt(sum of squared eigenvalues {d/2, d/2, -d, 0}) = d sqrt(3/2)
        from spinweave.spins import SpinSystem, dipolar_hamiltonian

        d_hz = 731.0
        h = dipolar_hamiltonian(SpinSystem.create([[0.0, d_hz], [d_hz, 0.0]]))
        eigs = np.linalg.eigvalsh(h)
        oracle = np.sqrt(np.sum(eigs**2))
        d = 2 * np.pi * d_hz
        assert oracle == pytest.approx(d * np.sqrt(1.5), rel=1e-12)
        assert frobenius_magnitude(h) == pytest.approx(oracle, rel=1e-12)

    @given(st.integers(0, 10_000))
    def test_unitary_invariance(self, seed):
        h = random_hermitian(seed, 8)
        u = random_unitary(seed + 1, 8)
        assert frobenius_magnitude(u @ h @ u.conj().T) == pytest.approx(
            frobenius_magnitude(h), rel=1e-12
        )


def test_spectral_norm_matches_eigvalsh():
    h = random_hermitian(11, 16, scale=3.0)
    assert spectral_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-12)
