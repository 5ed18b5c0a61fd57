import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave import operators
from spinweave.operators import (
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
    return np.stack(
        [
            internal_hamiltonian(
                SpinSystem.create(
                    sample_couplings(90 + n_spins + k, n_spins, 5000.0 / 3.0),
                    disorder_hz=sample_disorder(95 + n_spins + k, n_spins, 200.0),
                )
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
        first, again = sectors.blocks(3e-5), sectors.blocks(3e-5)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

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

    def test_real_symmetric_input_matches_its_complex_twin(self):
        # a real generator is factored by a real eigh; its propagators are complex
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, 16, 16))
        stack += stack.swapaxes(-1, -2)
        real, twin = HermitianPropagator(stack), HermitianPropagator(stack.astype(complex))
        assert all(v.dtype == np.float64 for _, v in real._factors)
        assert np.abs(real.spectral_norm - twin.spectral_norm).max() <= 1e-14 * twin.spectral_norm.max()
        for t in (0.05, 0.7):
            assert real.at(t).dtype == np.complex128
            assert np.abs(real.at(t) - twin.at(t)).max() < 1e-14
        h = internal_hamiltonian(SpinSystem.create(sample_couplings(6, 4, 1000.0)))
        sectors = magnetization_sectors(4)
        real = HermitianPropagator(h.real, sectors)
        assert np.abs(real.at(2e-5) - HermitianPropagator(h, sectors).at(2e-5)).max() < 1e-14

    def test_rejects_a_real_asymmetric_input(self):
        h = np.random.default_rng(10).normal(size=(8, 8))
        h += h.T
        h[0, 1] += 1e-6 * np.abs(h).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianPropagator(h)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-130, 1e-155, 1e-300])
    def test_tiny_members_take_the_scaled_norms(self, scale):
        # at 1e-155 the plain norm is nonzero but the squares of a 1e-9 skew
        # underflow to 0: the member would pass unless its norms were scaled
        h = random_hermitian(5, 4)
        skew = np.random.default_rng(6).normal(size=(4, 4))
        near, far = h + 2e-13 * skew, h + 1e-9 * skew
        assert hermiticity_defect(near * scale) == pytest.approx(hermiticity_defect(near), rel=1e-3)
        assert hermiticity_defect(np.stack([near, far]) * scale)[1] == pytest.approx(hermiticity_defect(far), rel=1e-3)
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(far * scale)

    def test_plain_and_scaled_norms_agree_to_the_bit(self):
        # a stack with one tiny member takes the scaled norms for every member
        stack = np.stack([random_hermitian(k, 8) + 1e-11 * random_unitary(k, 8) for k in range(3)])
        plain = hermiticity_defect(stack)
        assert np.array_equal(hermiticity_defect(np.concatenate([stack, 1e-200 * stack[:1]]))[:3], plain)

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

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_root(2.0 * np.eye(4), 2)

    @pytest.mark.parametrize("m", [0, -2, 2.5])
    def test_rejects_bad_root_order(self, m):
        with pytest.raises(ValueError, match="root order"):
            unitary_root(random_unitary(4, 4), m)

    def test_singular_cayley_member_is_recentred(self):
        # the trace is real and positive, so the eigenvalue -1 sits exactly on
        # the trace-centred cut, where I + v is singular; like a phase near
        # that cut it moves the cut into the widest gap, around 0
        angles = np.array([1.0, 1.1, 1.2])
        lam = np.concatenate([[-1.0, -1.0], np.stack([np.exp(1j * angles), np.exp(-1j * angles)], axis=1).ravel()])
        c, mu = _unitary_eigenphases(np.diag(lam))
        assert np.cos(mu) == pytest.approx(-1.0, abs=1e-15)
        expected = np.sort(np.concatenate([[0.0, 0.0], np.pi - angles, angles - np.pi]))
        assert np.allclose(np.sort(c), expected, rtol=0, atol=1e-15)
        root = unitary_root(np.diag(lam), 2)
        assert abs(np.trace(root)) / 8 == pytest.approx((2.0 + 2.0 * np.sin(angles / 2).sum()) / 8, abs=1e-15)
        assert np.abs(root @ root - np.diag(lam)).max() < 1e-15


def assert_same_circle_points(theta, ref, tol=1e-12):
    """Equal as points on the circle, each list read from the middle of the widest gap of ``ref``."""
    ref_sorted = np.sort(ref)
    gaps = np.diff(ref_sorted, append=ref_sorted[0] + 2 * np.pi)
    cut = ref_sorted[gaps.argmax()] + gaps.max() / 2
    a = np.sort((np.asarray(theta) - cut) % (2 * np.pi))
    b = np.sort((np.asarray(ref) - cut) % (2 * np.pi))
    assert np.abs(a - b).max() <= tol


def solved_phases(u: np.ndarray) -> np.ndarray:
    """Eigenphases ``mu + c`` of a unitary or stack from the Cayley path, unwrapped."""
    c, mu = _unitary_eigenphases(u)
    return mu[..., None] + c


def oracle_points(u: np.ndarray) -> np.ndarray:
    c, mu = oracle_phases(u)
    return mu + c


def assert_clear_of_cut(u: np.ndarray) -> None:
    """Every centred phase lies at least min(2 atan(1 / _RECENTRE_TAN), pi / d) from the cut at +/-pi."""
    c, _ = _unitary_eigenphases(u)
    clearance = min(2.0 * np.arctan(1.0 / operators._RECENTRE_TAN), np.pi / u.shape[-1])
    assert np.pi - np.abs(c).max() >= clearance - 1e-12


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
        # the same branch as the oracle, not only the same points on the circle
        stack = np.stack([random_unitary(seed + b, 2**log_dim) for b in range(members)])
        c, mu = _unitary_eigenphases(stack)
        assert c.shape == stack.shape[:-1] and mu.shape == stack.shape[:-2]
        for b, u in enumerate(stack):
            # a recentred centre carries the error of the phase near the
            # first cut, so mu and c are compared through their sum
            assert np.abs(np.sort(mu[b] + c[b]) - np.sort(oracle_points(u))).max() <= 1e-12
            c_one, mu_one = _unitary_eigenphases(u)
            assert np.array_equal(c_one, c[b]) and mu_one == mu[b]

    def test_transposed_stack_matches_contiguous_copy(self):
        # the Cayley shift of the diagonal goes through a flat view; on a
        # transposed stack it once landed in a copy and was lost, and these
        # unitaries read "off the unit circle (Cayley skew 1.265e+00)"
        stack = np.stack([random_unitary(seed, 4) for seed in range(3)]).transpose(0, 2, 1)
        assert not stack.flags.c_contiguous
        contiguous = np.ascontiguousarray(stack)
        assert np.array_equal(solved_phases(stack), solved_phases(contiguous))
        solved = _unitary_eigenphases(stack, basis=True)
        reference = _unitary_eigenphases(contiguous, basis=True)
        assert all(np.array_equal(a, b) for a, b in zip(solved, reference))

    @pytest.mark.parametrize("dim", [4, 16, 256])
    @pytest.mark.parametrize("kind", SPECTRA)
    def test_special_spectra_match_oracle(self, kind, dim):
        # "spread" has a noise-level trace and equal gaps, so no branch is
        # preferred: compare points on the circle
        u = with_spectrum(dim + 1, spectrum(kind, dim))
        assert_same_circle_points(solved_phases(u), oracle_points(u))
        assert_clear_of_cut(u)

    def test_cluster_on_cut_is_recentred(self, monkeypatch):
        calls = []
        cayley = operators._cayley
        monkeypatch.setattr(operators, "_cayley", lambda u, mu: calls.append(len(u)) or cayley(u, mu))
        stack = np.stack([random_unitary(1, 16), with_spectrum(2, spectrum("cluster-on-cut", 16))])
        theta = solved_phases(stack)
        assert calls == [2, 1]  # the second member alone is centred again
        assert np.abs(np.sort(theta[1]) - np.sort(oracle_points(stack[1]))).max() <= 1e-12

    @pytest.mark.parametrize(
        "diagonal", [[-1, 1, 1, 1], [-1, 1, 1j, -1j], [-1, -1, -1, -1], [1j, -1, -1, -1]]
    )
    def test_exact_minus_one_on_the_centred_cut(self, diagonal):
        # diagonal inputs put an eigenvalue exactly on the trace-centred cut,
        # where I + v is exactly singular
        u = np.diag(np.array(diagonal, dtype=complex))
        assert_same_circle_points(solved_phases(u), oracle_points(u), tol=1e-15)
        assert_clear_of_cut(u)

    @pytest.mark.parametrize("dim", [4, 16, 256])
    @pytest.mark.parametrize("kind", SPECTRA)
    def test_basis_is_orthonormal_and_reconstructs(self, kind, dim):
        u = with_spectrum(dim + 3, spectrum(kind, dim))
        c, mu, v = _unitary_eigenphases(u, basis=True)
        assert_same_circle_points(mu + c, solved_phases(u))
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-12
        assert np.abs((v * np.exp(1j * (mu + c))) @ v.conj().T - u).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 48])
    @pytest.mark.parametrize("kind", ["spread", "cluster-on-cut"])
    def test_root_power_is_input(self, kind, m):
        u = with_spectrum(5, spectrum(kind, 64))
        root = unitary_root(u, m)
        assert np.abs(np.linalg.matrix_power(root, m) - u).max() < 1e-11


class TestWholeMemberBranch:
    """A (1, blocks, k, k) solve takes the branch a dense solve of the block-diagonal matrix takes."""

    @pytest.mark.parametrize(
        "phases,recentred",
        [
            (([1.5, -1.5], [np.pi + 0.3, np.pi - 0.3]), False),
            (([0.94, 0.61], [0.05, -2.6]), True),  # a phase 0.009 rad from the whole cut
            (([0.03, -2.43], [2.32, -2.98]), True),  # the same, whole trace phase near -pi
            ((np.pi - np.linspace(0.0, 2.5, 4), np.pi + np.linspace(0.0, 2.5, 4)), False),
        ],
    )
    def test_matches_dense_solve_and_oracle(self, phases, recentred):
        blocks = np.stack([with_spectrum(7 + k, p) for k, p in enumerate(phases)])
        k = blocks.shape[-1]
        whole = np.zeros((2 * k, 2 * k), dtype=complex)
        whole[:k, :k], whole[k:, k:] = blocks
        c, mu = _unitary_eigenphases(blocks[None])
        assert c.shape == (1, 2, k) and mu.shape == (1,)
        theta = np.sort((mu[0] + c).ravel())
        c_dense, mu_dense = _unitary_eigenphases(whole)
        assert (abs(mu_dense - np.angle(np.trace(whole))) > 0.1) == recentred
        assert abs(np.angle(np.exp(1j * (mu[0] - mu_dense)))) <= 1e-13  # one centre, the dense one
        assert np.abs(theta - np.sort(mu_dense + c_dense)).max() <= 1e-13
        assert np.abs(theta - np.sort(oracle_points(whole))).max() <= 1e-13

    def test_members_are_centred_and_recentred_on_their_own(self):
        phases = [([1.5, -1.5], [np.pi + 0.3, np.pi - 0.3]), ([0.94, 0.61], [0.05, -2.6]), ([0.1, -0.2], [0.3, 0.0])]
        stack = np.stack([np.stack([with_spectrum(7 + k, p) for k, p in enumerate(member)]) for member in phases])
        c, mu, v = _unitary_eigenphases(stack, basis=True)
        assert c.shape == (3, 2, 2) and mu.shape == (3,) and v.shape == stack.shape
        for b, blocks in enumerate(stack):
            alone = _unitary_eigenphases(blocks[None], basis=True)
            assert all(np.array_equal(x[b], y[0]) for x, y in zip((c, mu, v), alone))
            assert np.abs((v[b] * np.exp(1j * (mu[b] + c[b]))[:, None, :]) @ v[b].conj().swapaxes(-1, -2) - blocks).max() < 1e-13


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
