import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave import operators
from spinweave.operators import (
    BranchCutWarning,
    HermitianPropagator,
    _unitarity_defects,
    _unitary_eigenphases,
    expm_hermitian,
    frobenius_magnitude,
    hermiticity_defect,
    require_hermitian,
    require_unitary,
    unitary_root,
)
from spinweave.spins import (
    SIGMA,
    SpinSystem,
    internal_hamiltonian,
    internal_hamiltonian_stack,
    magnetization_sectors,
    sample_couplings,
    sample_disorder,
)

from conftest import oracle_phases, random_hermitian, random_unitary


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


def sector_stack(n_spins: int, members: int) -> np.ndarray:
    return internal_hamiltonian_stack(
        [
            SpinSystem.create(
                sample_couplings(90 + n_spins + k, n_spins, 5000.0 / 3.0),
                disorder_hz=sample_disorder(95 + n_spins + k, n_spins, 200.0),
            )
            for k in range(members)
        ]
    )


class TestHermitianPropagator:
    def test_dense_at_is_the_eigh_of_the_hermitian_part(self):
        stack = np.stack([random_hermitian(7 + k, 8) for k in range(3)])
        stack += 1e-12 * np.random.default_rng(8).normal(size=stack.shape)  # within DEFECT_TOL
        for h in (stack[0], stack):
            w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
            for t in (0.3, 2.0):
                expected = (v * np.exp(-1j * w * t)[..., None, :]) @ v.conj().swapaxes(-1, -2)
                assert np.array_equal(HermitianPropagator(h).at(t), expected)

    @pytest.mark.parametrize("n_spins", [2, 4, 6])
    def test_sector_blocks_assemble_to_the_dense_propagator(self, n_spins):
        h = sector_stack(n_spins, 2)
        sectors = HermitianPropagator(h, magnetization_sectors(n_spins))
        assert np.abs(sectors.at(3e-5) - HermitianPropagator(h).at(3e-5)).max() < 1e-12
        layout = magnetization_sectors(n_spins)
        assert [b.shape[-1] for b in sectors.blocks(3e-5)] == [s.stop - s.start for s in layout.spans]
        assert sectors.blocks(3e-5) is sectors.blocks(3e-5)

    def test_spectral_norm(self):
        h = random_hermitian(12, 16, scale=3.0)
        assert HermitianPropagator(h).spectral_norm == pytest.approx(np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-12)
        stack = sector_stack(4, 3)
        norms = HermitianPropagator(stack, magnetization_sectors(4)).spectral_norm
        assert norms.shape == (3,)
        for norm, member in zip(norms, stack):
            assert norm == pytest.approx(np.abs(np.linalg.eigvalsh(member)).max(), rel=1e-12)

    def test_rejects_an_element_outside_the_blocks(self):
        h = internal_hamiltonian(SpinSystem.create(sample_couplings(5, 3, 1000.0)))
        h[0, 1] = h[1, 0] = 1e-3  # states with 0 and 1 down spins
        HermitianPropagator(h)
        with pytest.raises(ValueError, match="outside the blocks"):
            HermitianPropagator(h, magnetization_sectors(3))

    def test_rejects_one_non_hermitian_member(self):
        stack = sector_stack(3, 4)
        stack[2, 0, 0] += 1j * 1e-3 * np.abs(stack[2]).max()
        for layout in (None, magnetization_sectors(3)):
            with pytest.raises(ValueError, match="not Hermitian"):
                HermitianPropagator(stack, layout)

    def test_block_defect_is_the_whole_matrix_defect(self):
        # the asymmetry is measured on the gathered blocks, to the same tolerance
        stack = sector_stack(4, 2)
        layout = magnetization_sectors(4)
        a, b = layout.order[layout.spans[2]][:2]
        stack[1, a, b] += 1e-9 * np.abs(stack[1]).max()
        with pytest.raises(ValueError, match="not Hermitian") as raised:
            HermitianPropagator(stack, layout)
        reported = float(str(raised.value).split("asymmetry ")[1].rstrip(")"))
        assert reported == pytest.approx(hermiticity_defect(stack).max(), rel=1e-3)
        assert reported > operators.DEFECT_TOL

    def test_rejects_a_layout_of_another_dimension(self):
        with pytest.raises(ValueError, match="layout"):
            HermitianPropagator(sector_stack(3, 1), magnetization_sectors(4))


class TestHermiticityChecks:
    def test_stack_defects_are_the_member_defects(self):
        stack = np.stack([random_hermitian(k, 8) for k in range(3)] + [np.zeros((8, 8))])
        stack[1, 0, 1] += 0.1
        defects = hermiticity_defect(stack)
        assert defects.shape == (4,)
        for defect, member in zip(defects, stack):
            assert defect == pytest.approx(hermiticity_defect(member), rel=1e-12, abs=0.0)
        assert defects[0] == defects[2] == defects[3] == 0.0 < defects[1]

    def test_require_hermitian_checks_every_member(self):
        stack = np.stack([random_hermitian(k, 4) for k in range(3)])
        assert np.array_equal(require_hermitian(stack), stack)
        stack[2, 1, 0] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(stack)
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.zeros((2, 2, 4, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e200])
    def test_defect_does_not_depend_on_scale(self, scale):
        # the norms once overflowed above ~1e154: a near-Hermitian matrix read
        # 0 at 1e160 and was rejected with a nan asymmetry at 1e200
        h = random_hermitian(3, 4)
        skew = np.random.default_rng(4).normal(size=(4, 4))
        near, far = h + 2e-13 * skew, h + 1e-3 * skew
        defect = hermiticity_defect(near * scale)
        assert 0.0 < defect == pytest.approx(hermiticity_defect(near), rel=1e-3)
        assert np.array_equal(require_hermitian(near * scale), near * scale)
        with pytest.raises(ValueError, match="not Hermitian") as raised:
            require_hermitian(far * scale)
        reported = float(str(raised.value).split("asymmetry ")[1].rstrip(")"))
        assert reported == pytest.approx(hermiticity_defect(far), rel=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_elements_are_rejected(self, bad):
        h = np.eye(4, dtype=complex)
        h[1, 1] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(h)
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_hermitian(h, 1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(np.stack([np.eye(4), h]))
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(np.full((4, 4), bad, dtype=complex))
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(h)


class TestUnitarityDefects:
    def test_member_defects_match_dense_norm(self):
        stack = np.stack([random_unitary(k, 8) for k in range(3)])
        stack[1] *= 1.0 + 1e-6
        stack[2, 3, 4] += 1e-3
        defects = _unitarity_defects(stack)
        assert defects.shape == (3,)
        for defect, u in zip(defects, stack):
            dense = np.linalg.norm(u.conj().T @ u - np.eye(8)) / np.sqrt(8)
            assert defect == pytest.approx(dense, rel=1e-10, abs=1e-15)
        assert defects[0] < 1e-14 < defects[1] < defects[2]

    def test_blocks_give_the_defect_of_their_direct_sum(self):
        blocks = np.stack([random_unitary(k, 4) for k in range(2)])
        blocks[1] *= 1.0 + 1e-5
        whole = np.zeros((8, 8), dtype=complex)
        whole[:4, :4], whole[4:, 4:] = blocks
        dense = np.linalg.norm(whole.conj().T @ whole - np.eye(8)) / np.sqrt(8)
        assert _unitarity_defects(blocks[None])[0] == pytest.approx(dense, rel=1e-10)
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(whole)


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

    def test_branch_cut_warning_points_at_the_caller(self):
        theta = np.pi - 1e-12
        u = np.diag(np.exp(1j * np.array([theta, -theta, 0.1, 0.2])))
        with pytest.warns(BranchCutWarning) as record:
            here = inspect.currentframe().f_lineno
            unitary_root(u, 2)
        assert [(w.filename, w.lineno) for w in record] == [(__file__, here + 1)]

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_root(2.0 * np.eye(4), 2)

    @pytest.mark.parametrize("m", [0, -2, 2.5])
    def test_rejects_bad_root_order(self, m):
        with pytest.raises(ValueError, match="root order"):
            unitary_root(random_unitary(4, 4), m)

    def test_principal_phases_put_minus_pi_on_pi(self):
        lam = np.array([complex(-1.0, -0.0), 1j, -1j, 1.0])  # np.angle gives -pi first
        phases = np.array([np.pi, np.pi / 2, -np.pi / 2, 0.0])
        theta = np.sort(_unitary_eigenphases(np.diag(lam), 1))
        assert np.allclose(theta, np.sort(phases), rtol=0, atol=1e-15)
        with pytest.warns(BranchCutWarning):
            root = unitary_root(np.diag(lam), 2)
        assert np.allclose(np.diag(root), np.exp(0.5j * phases), rtol=0, atol=1e-15)


def assert_same_circle_points(theta, ref, tol=1e-12):
    """Equal as points on the circle, each list read from the middle of the widest gap of ``ref``."""
    ref_sorted = np.sort(ref)
    gaps = np.diff(ref_sorted, append=ref_sorted[0] + 2 * np.pi)
    cut = ref_sorted[gaps.argmax()] + gaps.max() / 2
    a = np.sort((np.asarray(theta) - cut) % (2 * np.pi))
    b = np.sort((np.asarray(ref) - cut) % (2 * np.pi))
    assert np.abs(a - b).max() <= tol


def with_spectrum(seed: int, phases) -> np.ndarray:
    q = random_unitary(seed, len(phases))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def spectrum(kind: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng(dim)
    if kind == "minus-one":
        return np.concatenate([[np.pi], rng.uniform(-np.pi, np.pi, dim - 1)])
    if kind == "spread":
        return np.linspace(-np.pi, np.pi, dim, endpoint=False) + 0.5 / dim
    # "cluster-on-cut": most phases near 0.3, so the trace phase is ~0.3 and
    # the centred cut at 0.3 + pi lands inside a cluster of three phases
    bulk = 0.3 + rng.normal(0.0, 0.05, dim - 3)
    return np.concatenate([bulk, 0.3 + np.pi + np.array([-1e-6, 1e-9, 2e-5])])


SPECTRA = ("minus-one", "spread", "cluster-on-cut")


class TestUnitaryEigenphases:
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 3))
    def test_matches_eigvals_oracle(self, seed, log_dim, members):
        stack = np.stack([random_unitary(seed + b, 2**log_dim) for b in range(members)])
        theta = _unitary_eigenphases(stack, 1)
        assert theta.shape == stack.shape[:-1]
        for b, u in enumerate(stack):
            assert_same_circle_points(theta[b], oracle_phases(u))
            assert np.array_equal(_unitary_eigenphases(u, 1), theta[b])

    def test_transposed_stack_matches_contiguous_copy(self):
        # the Cayley shift of the diagonal goes through a flat view; on a
        # transposed stack it once landed in a copy and was lost, and these
        # unitaries read "off the unit circle (Cayley skew 1.265e+00)"
        stack = np.stack([random_unitary(seed, 4) for seed in range(3)]).transpose(0, 2, 1)
        assert not stack.flags.c_contiguous
        contiguous = np.ascontiguousarray(stack)
        assert np.array_equal(_unitary_eigenphases(stack, 1), _unitary_eigenphases(contiguous, 1))
        theta, v = _unitary_eigenphases(stack, 1, basis=True)
        theta_ref, v_ref = _unitary_eigenphases(contiguous, 1, basis=True)
        assert np.array_equal(theta, theta_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("dim", [4, 16, 256])
    @pytest.mark.parametrize("kind", SPECTRA)
    def test_special_spectra_match_oracle(self, kind, dim):
        u = with_spectrum(dim + 1, spectrum(kind, dim))
        assert_same_circle_points(_unitary_eigenphases(u, 1), oracle_phases(u))

    def test_cluster_on_cut_is_recentred(self, monkeypatch):
        calls = []
        cayley = operators._cayley
        monkeypatch.setattr(operators, "_cayley", lambda u, mu: calls.append(len(u)) or cayley(u, mu))
        stack = np.stack([random_unitary(1, 16), with_spectrum(2, spectrum("cluster-on-cut", 16))])
        theta = _unitary_eigenphases(stack, 1)
        assert calls == [2, 1]  # the second member alone is centred again
        assert_same_circle_points(theta[1], oracle_phases(stack[1]))

    @pytest.mark.parametrize(
        "diagonal", [[-1, 1, 1, 1], [-1, 1, 1j, -1j], [-1, -1, -1, -1], [1j, -1, -1, -1]]
    )
    def test_exact_minus_one_on_the_centred_cut(self, diagonal):
        # diagonal inputs put an eigenvalue exactly on the trace-centred cut,
        # where I + v is exactly singular
        u = np.diag(np.array(diagonal, dtype=complex))
        assert_same_circle_points(_unitary_eigenphases(u, 1), oracle_phases(u), tol=1e-15)
        with pytest.warns(BranchCutWarning):
            _unitary_eigenphases(u, 2)

    @pytest.mark.parametrize("dim", [4, 16, 256])
    @pytest.mark.parametrize("kind", SPECTRA)
    def test_basis_is_orthonormal_and_reconstructs(self, kind, dim):
        u = with_spectrum(dim + 3, spectrum(kind, dim))
        theta, v = _unitary_eigenphases(u, 1, basis=True)
        assert_same_circle_points(theta, _unitary_eigenphases(u, 1))
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-12
        assert np.abs((v * np.exp(1j * theta)) @ v.conj().T - u).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 48])
    @pytest.mark.parametrize("kind", ["spread", "cluster-on-cut"])
    def test_root_power_is_input(self, kind, m):
        u = with_spectrum(5, spectrum(kind, 64))
        root = unitary_root(u, m)
        assert np.abs(np.linalg.matrix_power(root, m) - u).max() < 1e-11


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
    # a negative eigenvalue dominates: the norm is the largest |lambda|, not the largest lambda
    h = random_hermitian(11, 16, scale=3.0) - 40.0 * np.eye(16)
    assert HermitianPropagator(h).spectral_norm == pytest.approx(np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-12)
