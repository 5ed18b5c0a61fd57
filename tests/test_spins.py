from math import comb

import numpy as np
import pytest

from spinweave.control import collective_phase_operator
from spinweave.operators import commutator, expm_hermitian, frobenius_magnitude
from spinweave.spins import (
    DEFAULT_COUPLING_SIGMA_HZ,
    SpinSystem,
    _PAIR_FACTORS,
    _pair_stack,
    _parity_blocks,
    collective_operator,
    collective_rotation,
    dipolar_hamiltonian,
    dq_hamiltonian,
    embedded_spin,
    internal_hamiltonian,
    kron_power,
    magnetization,
    magnetization_sectors,
    offset_hamiltonian,
    parity_sectors,
    sample_couplings,
    sample_disorder,
    spin_operator,
)

TWO_PI = 2 * np.pi


def kron_dipolar_oracle(system):
    """Independent H_D construction from embedded operator products."""
    n = system.n_spins
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            d = TWO_PI * system.couplings_hz[i, j]
            zz = embedded_spin(n, i, "z") @ embedded_spin(n, j, "z")
            dot = sum(
                embedded_spin(n, i, a) @ embedded_spin(n, j, a) for a in "xyz"
            )
            h += d * (3 * zz - dot)
    return h


class TestCollectiveOperators:
    def test_single_spin_z(self):
        assert np.allclose(collective_operator(1, "z"), np.diag([0.5, -0.5]))

    def test_two_spin_z_additivity(self):
        assert np.allclose(collective_operator(2, "z"), np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_su2_commutator_three_spins(self):
        sx = collective_operator(3, "x")
        sy = collective_operator(3, "y")
        sz = collective_operator(3, "z")
        assert np.abs(commutator(sx, sy) - 1j * sz).max() < 1e-14

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_kron_embedding(self, n, axis):
        oracle = sum(embedded_spin(n, i, axis) for i in range(n))
        assert np.abs(collective_operator(n, axis) - oracle).max() < 1e-15

    @pytest.mark.parametrize("angle", [np.pi / 2, 1.05 * np.pi / 2, 0.01])
    @pytest.mark.parametrize("phase_deg", [0.0, 90.0, 180.0, 270.0, 45.0])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_collective_rotation_matches_eigendecomposition(self, n, phase_deg, angle):
        oracle = expm_hermitian(collective_phase_operator(n, phase_deg), angle)
        assert np.abs(collective_rotation(n, phase_deg, angle) - oracle).max() < 1e-13

    @pytest.mark.parametrize("n", range(1, 11))
    def test_phase_operator_equals_axis_sum(self, n):
        # elements equal cos(phi) Sx + sin(phi) Sy exactly; zeros may differ in sign
        sx, sy = collective_operator(n, "x"), collective_operator(n, "y")
        for phase_deg in (0.0, 30.0, 90.0, 135.0, 180.0, 225.0, 270.0, -37.5):
            phi = np.deg2rad(phase_deg)
            assert np.array_equal(
                collective_phase_operator(n, phase_deg), np.cos(phi) * sx + np.sin(phi) * sy
            ), phase_deg

    @pytest.mark.parametrize("n", range(1, 11))
    def test_magnetization_is_sz_diagonal(self, n):
        m = magnetization(n)
        assert np.array_equal(m, [n / 2 - bin(s).count("1") for s in range(1 << n)])
        assert np.array_equal(collective_operator(n, "z"), np.diag(m))
        assert not m.flags.writeable and magnetization(n) is m

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            collective_operator(2, "w")
        with pytest.raises(ValueError):
            spin_operator("q")


class TestDipolarHamiltonian:
    def test_zero_couplings(self):
        sys2 = SpinSystem.create(np.zeros((3, 3)))
        assert np.abs(dipolar_hamiltonian(sys2)).max() == 0.0

    def test_two_spin_eigenvalues(self):
        d_hz = 250.0
        d = TWO_PI * d_hz
        h = dipolar_hamiltonian(SpinSystem.create([[0, d_hz], [d_hz, 0]]))
        eigs = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eigs, sorted([d / 2, d / 2, -d, 0.0]), atol=1e-9)

    def test_conserves_total_z(self):
        system = SpinSystem.create(sample_couplings(17, 4, 1500.0))
        h = dipolar_hamiltonian(system)
        sz = collective_operator(4, "z")
        assert np.abs(commutator(h, sz)).max() < 1e-12 * np.abs(h).max()

    def test_traceless(self):
        system = SpinSystem.create(sample_couplings(18, 5, 2000.0))
        h = dipolar_hamiltonian(system)
        assert abs(np.trace(h)) < 1e-12 * frobenius_magnitude(h)

    def test_matches_kron_oracle(self):
        system = SpinSystem.create(sample_couplings(19, 3, 900.0))
        assert np.abs(dipolar_hamiltonian(system) - kron_dipolar_oracle(system)).max() < 1e-9


class TestOffsetHamiltonian:
    def test_zero(self):
        system = SpinSystem.create(np.zeros((2, 2)))
        assert np.abs(offset_hamiltonian(system)).max() == 0.0

    def test_single_spin_scaling(self):
        # a = 2 pi 100 rad/s on one spin contributes +/- pi*100 on the diagonal
        system = SpinSystem.create(np.zeros((2, 2)), chemical_shifts_hz=[100.0, 0.0])
        h = offset_hamiltonian(system)
        assert np.allclose(np.diag(h).real, [np.pi * 100, np.pi * 100, -np.pi * 100, -np.pi * 100])
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_commutes_with_total_z(self):
        system = SpinSystem.create(
            np.zeros((3, 3)), chemical_shifts_hz=[10, -5, 3], disorder_hz=[1, 2, -3],
            global_offset_hz=7.5,
        )
        h = offset_hamiltonian(system)
        assert np.abs(commutator(h, collective_operator(3, "z"))).max() < 1e-12

    def test_sums_all_offset_sources(self):
        system = SpinSystem.create(
            np.zeros((2, 2)), chemical_shifts_hz=[5, 0], disorder_hz=[2, -1],
            global_offset_hz=10,
        )
        assert np.allclose(system.total_offsets_hz, [17.0, 9.0])
        oracle = sum(
            TWO_PI * a * embedded_spin(2, i, "z") for i, a in enumerate([17.0, 9.0])
        )
        assert np.abs(offset_hamiltonian(system) - oracle).max() < 1e-12
        assert np.abs(internal_hamiltonian(system) - offset_hamiltonian(system)).max() == 0.0


class TestPairTableBuild:
    """H_int placed from the cached pair tables against a Kronecker build."""

    @staticmethod
    def random_system(n_spins, seed):
        rng = np.random.default_rng(seed)
        return SpinSystem.create(
            sample_couplings(seed, n_spins, DEFAULT_COUPLING_SIGMA_HZ),
            chemical_shifts_hz=rng.normal(0.0, 80.0, n_spins),
            disorder_hz=rng.normal(0.0, 300.0, n_spins),
            global_offset_hz=rng.normal(0.0, 150.0),
        )

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_matches_kron_build(self, n_spins):
        system = self.random_system(n_spins, 300 + n_spins)
        oracle = kron_dipolar_oracle(system) + sum(
            TWO_PI * a * embedded_spin(n_spins, i, "z")
            for i, a in enumerate(system.total_offsets_hz)
        )
        scale = np.abs(oracle).max()
        assert np.abs(internal_hamiltonian(system) - oracle).max() <= 1e-12 * scale
        assert np.abs(dipolar_hamiltonian(system) - kron_dipolar_oracle(system)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_spins", [2, 4, 7])
    def test_stack_members_equal_single_builds(self, n_spins):
        systems = [self.random_system(n_spins, 400 + 10 * n_spins + k) for k in range(5)]
        couplings = np.stack([s.couplings_hz for s in systems])
        stack = _pair_stack(couplings, _PAIR_FACTORS["z"], np.stack([s.total_offsets_hz for s in systems]))
        assert stack.shape == (5, 1 << n_spins, 1 << n_spins)
        for member, system in zip(stack, systems):
            assert np.array_equal(member, internal_hamiltonian(system))


class TestDqHamiltonian:
    def test_zero(self):
        assert np.abs(dq_hamiltonian(SpinSystem.create(np.zeros((2, 2))))).max() == 0.0

    def test_two_spin_elements(self):
        j_hz = 120.0
        h = dq_hamiltonian(SpinSystem.create([[0, j_hz], [j_hz, 0]]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = TWO_PI * j_hz / 4.0
        assert np.abs(h - expected).max() < 1e-12

    def test_delta_m_two_selection(self):
        system = SpinSystem.create(sample_couplings(23, 4, 800.0))
        h = dq_hamiltonian(system)
        m = np.diag(collective_operator(4, "z")).real
        delta = np.round(m[:, None] - m[None, :]).astype(int)
        assert np.abs(h[np.abs(delta) != 2]).max() == 0.0

    def test_parity_conjugation_invariance(self):
        system = SpinSystem.create(sample_couplings(29, 3, 650.0))
        h = dq_hamiltonian(system)
        phases = np.exp(1j * np.pi * np.diag(collective_operator(3, "z")).real)
        conjugated = (phases[:, None] * h) * phases.conj()[None, :]
        assert np.abs(conjugated - h).max() < 1e-12 * max(np.abs(h).max(), 1.0)

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_equals_pairwise_scatter(self, n_spins):
        # bit for bit against a scatter per pair of the elements TWO_PI * J / 4
        couplings = sample_couplings(50 + n_spins, n_spins, DEFAULT_COUPLING_SIGMA_HZ)
        couplings[0, 1] = couplings[1, 0] = 0.0
        system = SpinSystem.create(couplings)
        dim = 1 << n_spins
        states = np.arange(dim)
        oracle = np.zeros((dim, dim), dtype=complex)
        for i in range(n_spins):
            for j in range(i + 1, n_spins):
                mask = (1 << (n_spins - 1 - i)) | (1 << (n_spins - 1 - j))
                both_down = states[(states & mask) == mask]
                value = TWO_PI * system.couplings_hz[i, j] / 4.0
                oracle[both_down ^ mask, both_down] = value
                oracle[both_down, both_down ^ mask] = value
        assert np.array_equal(dq_hamiltonian(system), oracle)

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_block_diagonal_over_parity(self, n_spins):
        system = SpinSystem.create(sample_couplings(60 + n_spins, n_spins, DEFAULT_COUPLING_SIGMA_HZ))
        layout = parity_sectors(n_spins)
        h = dq_hamiltonian(system)[np.ix_(layout.order, layout.order)]
        assert np.any(h)
        for span in layout.spans:
            h[span, span] = 0.0
        assert not np.any(h)

    def test_matches_kron_oracle(self):
        system = SpinSystem.create(sample_couplings(31, 3, 500.0))
        n = 3
        oracle = np.zeros((8, 8), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                jj = TWO_PI * system.couplings_hz[i, j]
                oracle += 0.5 * jj * (
                    embedded_spin(n, i, "x") @ embedded_spin(n, j, "x")
                    - embedded_spin(n, i, "y") @ embedded_spin(n, j, "y")
                )
        assert np.abs(dq_hamiltonian(system) - oracle).max() < 1e-9


class TestSampling:
    def test_default_sigma_constant(self):
        assert DEFAULT_COUPLING_SIGMA_HZ == pytest.approx(5000.0 / 3.0)

    def test_coupling_determinism_and_shape(self):
        a = sample_couplings(42, 5, 1000.0)
        b = sample_couplings(42, 5, 1000.0)
        assert np.array_equal(a, b)
        assert np.array_equal(a, a.T)
        assert np.abs(np.diag(a)).max() == 0.0
        assert not np.array_equal(a, sample_couplings(43, 5, 1000.0))

    def test_coupling_half_normal_moment(self):
        # mean |d| over ~1e5 draws approximates sigma sqrt(2/pi)
        sigma = 1700.0
        draws = np.concatenate(
            [sample_couplings(s, 10, sigma)[np.triu_indices(10, 1)] for s in range(2300)]
        )
        assert draws.size > 100_000
        assert np.abs(draws).mean() == pytest.approx(sigma * np.sqrt(2 / np.pi), rel=0.02)

    def test_disorder_zero_sigma(self):
        assert np.abs(sample_disorder(7, 6, 0.0)).max() == 0.0

    def test_disorder_endpoint_sigmas_accepted(self):
        for sigma in (0.5, 5000.0):
            assert sample_disorder(11, 4, sigma).shape == (4,)

    def test_disorder_empirical_sigma(self):
        sigma = 80.0
        draws = np.concatenate([sample_disorder(s, 10, sigma) for s in range(10_000)])
        assert draws.std() == pytest.approx(sigma, rel=0.02)

    def test_disorder_scales_one_fixed_draw(self):
        base = sample_disorder(5, 4, 1.0)
        assert np.allclose(sample_disorder(5, 4, 250.0), 250.0 * base)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            sample_couplings(1, 4, 0.0)
        with pytest.raises(ValueError):
            sample_disorder(1, 4, -1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        # a nan matrix and +/-inf fields were once returned without an error
        with pytest.raises(ValueError, match="finite"):
            sample_couplings(1, 3, sigma)
        with pytest.raises(ValueError, match="finite"):
            sample_disorder(1, 3, sigma)


class TestSpinSystem:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            SpinSystem.create([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            SpinSystem.create([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="n_spins"):
            SpinSystem.create(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="n_spins"):
            SpinSystem.create(np.zeros((11, 11)))
        with pytest.raises(ValueError, match="length"):
            SpinSystem.create(np.zeros((2, 2)), chemical_shifts_hz=[1.0])

    def test_symmetry_tolerance(self):
        # atol is 1e-9 of the largest coupling: half of it is symmetrized, twice raises
        atol = 1e-9 * 2000.0
        system = SpinSystem.create([[0.0, 2000.0], [2000.0 - 0.5 * atol, 0.0]])
        assert system.couplings_hz[0, 1] == system.couplings_hz[1, 0]
        assert system.couplings_hz[0, 1] == pytest.approx(2000.0 - 0.25 * atol, rel=0.0, abs=1e-12)
        with pytest.raises(ValueError, match="must be symmetric"):
            SpinSystem.create([[0.0, 2000.0], [2000.0 - 2.0 * atol, 0.0]])

    def test_kron_embedding_oracle_for_single_site(self):
        # embedded_spin agrees with an explicit kron chain
        op = embedded_spin(3, 1, "y")
        oracle = np.kron(np.kron(np.eye(2), spin_operator("y")), np.eye(2))
        assert np.array_equal(op, oracle)


class TestMagnetizationSectors:
    @pytest.mark.parametrize("n_spins", range(1, 11))
    def test_layout_groups_states_by_down_spins(self, n_spins):
        layout = magnetization_sectors(n_spins)
        dim = 1 << n_spins
        assert sorted(layout.order) == list(range(dim))
        assert np.array_equal(layout.order[layout.inverse], np.arange(dim))
        assert [s.stop - s.start for s in layout.spans] == [comb(n_spins, k) for k in range(n_spins + 1)]
        for k, span in enumerate(layout.spans):
            assert all(bin(int(state)).count("1") == k for state in layout.order[span])

    @pytest.mark.parametrize("n_spins", range(2, 11))
    def test_internal_hamiltonian_is_block_diagonal(self, n_spins):
        system = SpinSystem.create(
            sample_couplings(80 + n_spins, n_spins, DEFAULT_COUPLING_SIGMA_HZ),
            chemical_shifts_hz=np.linspace(-50.0, 80.0, n_spins),
            disorder_hz=sample_disorder(90 + n_spins, n_spins, 300.0),
            global_offset_hz=120.0,
        )
        layout = magnetization_sectors(n_spins)
        h = internal_hamiltonian(system)[np.ix_(layout.order, layout.order)]
        for span in layout.spans:
            h[span, span] = 0.0
        assert not np.any(h)

    @pytest.mark.parametrize("n_spins", range(1, 11))
    def test_parity_layout_splits_even_and_odd_down_spins(self, n_spins):
        layout = parity_sectors(n_spins)
        dim = 1 << n_spins
        assert sorted(layout.order) == list(range(dim))
        assert np.array_equal(layout.order[layout.inverse], np.arange(dim))
        assert [s.stop - s.start for s in layout.spans] == [dim // 2, dim // 2]
        for parity, span in enumerate(layout.spans):
            states = layout.order[span]
            assert np.all(np.diff(states) > 0)
            assert all(bin(int(state)).count("1") % 2 == parity for state in states)

    @pytest.mark.parametrize("layout", [magnetization_sectors, parity_sectors])
    def test_layout_rejects_bad_spin_counts(self, layout):
        for n_spins in (0, 11):
            with pytest.raises(ValueError, match="n_spins"):
                layout(n_spins)

    def test_layout_is_read_only(self):
        layout = magnetization_sectors(4)
        with pytest.raises(ValueError):
            layout.order[0] = 1


def butterfly_basis(n_spins: int) -> np.ndarray:
    """(blocks, d, k) columns of the parity blocks, built from bit counts alone.

    Even n: ``(|s> + sigma |~s>) / sqrt(2)`` for the states ``s`` with spin 0
    up and ``p`` down spins modulo 2, blocks ordered (+, 0), (+, 1), (-, 0),
    (-, 1).  Odd n: ``|s>`` for the states with an even number of down spins.
    """
    dim = 1 << n_spins
    parity = np.array([bin(s).count("1") % 2 for s in range(dim)])
    if n_spins % 2:
        return np.eye(dim)[:, parity == 0][None]
    blocks = []
    for sign in (1.0, -1.0):
        for p in (0, 1):
            states = [s for s in range(dim // 2) if parity[s] == p]
            columns = np.zeros((dim, len(states)))
            columns[states, range(len(states))] = 1.0 / np.sqrt(2.0)
            columns[[dim - 1 - s for s in states], range(len(states))] += sign / np.sqrt(2.0)
            blocks.append(columns)
    return np.stack(blocks)


class TestParityBlocks:
    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6, 7])
    def test_toggled_blocks_match_embedded_spin_projection(self, n_spins):
        couplings = np.stack([sample_couplings(60 + n_spins + k, n_spins) for k in range(2)])
        parity = _parity_blocks(n_spins)
        blocks = np.stack([parity.from_standard(_pair_stack(couplings, _PAIR_FACTORS[a])) for a in "xyz"], axis=1)
        basis = butterfly_basis(n_spins)
        k = basis.shape[-1]
        assert blocks.shape == (2, 3, len(basis), k, k)
        spins = {a: [embedded_spin(n_spins, i, a) for i in range(n_spins)] for a in "xyz"}
        for member, c in zip(blocks, couplings):
            for axis, a in enumerate("xyz"):
                h = sum(
                    TWO_PI * c[i, j] * (3 * spins[a][i] @ spins[a][j] - sum(spins[b][i] @ spins[b][j] for b in "xyz"))
                    for i in range(n_spins)
                    for j in range(i + 1, n_spins)
                )
                reference = basis.transpose(0, 2, 1) @ h @ basis
                scale = np.abs(h).max()
                assert np.abs(member[axis] - reference).max() <= 1e-12 * scale, (n_spins, a)

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6, 7])
    def test_from_standard_inverts_to_standard(self, n_spins):
        parity = _parity_blocks(n_spins)
        k = parity.states.shape[1]
        rng = np.random.default_rng(n_spins)
        blocks = rng.normal(size=(3, parity.blocks, k, k)) + 1j * rng.normal(size=(3, parity.blocks, k, k))
        back = parity.from_standard(parity.to_standard(blocks))
        # (a + b) / 2 + (a - b) / 2 is a to one ulp of the larger of a, b
        pair = np.concatenate([blocks[:, 2:], blocks[:, :2]], axis=1) if parity.blocks == 4 else blocks
        for part in (np.real, np.imag):
            ulp = np.spacing(np.maximum(np.abs(part(blocks)), np.abs(part(pair))))
            assert np.all(np.abs(part(back) - part(blocks)) <= ulp)



class TestPairStack:
    @staticmethod
    def spins(n_spins):
        return {a: [embedded_spin(n_spins, i, a) for i in range(n_spins)] for a in "xyz"}

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6])
    def test_dq_factors_match_embedded_spin_oracle(self, n_spins):
        couplings = np.stack([sample_couplings(80 + n_spins + k, n_spins) for k in range(3)])
        h = _pair_stack(couplings, _PAIR_FACTORS["dq"])
        assert h.shape == (3, 1 << n_spins, 1 << n_spins) and h.dtype == np.complex128
        s = self.spins(n_spins)
        for member, c in zip(h, couplings):
            oracle = sum(
                0.5 * TWO_PI * c[i, j] * (s["x"][i] @ s["x"][j] - s["y"][i] @ s["y"][j])
                for i in range(n_spins)
                for j in range(i + 1, n_spins)
            )
            assert np.abs(member - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6])
    def test_z_with_offsets_matches_embedded_spin_oracle(self, n_spins):
        couplings = np.stack([sample_couplings(90 + n_spins + k, n_spins) for k in range(3)])
        offsets = np.random.default_rng(n_spins).normal(0.0, 500.0, size=(3, n_spins))
        h = _pair_stack(couplings, _PAIR_FACTORS["z"], offsets)
        assert h.shape == (3, 1 << n_spins, 1 << n_spins) and h.dtype == np.complex128
        s = self.spins(n_spins)
        for member, c, a in zip(h, couplings, offsets):
            oracle = sum(
                TWO_PI * c[i, j] * (3 * s["z"][i] @ s["z"][j] - sum(s[b][i] @ s[b][j] for b in "xyz"))
                for i in range(n_spins)
                for j in range(i + 1, n_spins)
            ) + sum(TWO_PI * a[i] * s["z"][i] for i in range(n_spins))
            assert np.abs(member - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5])
    def test_zero_couplings_leave_no_negative_zero(self, n_spins):
        partly = sample_couplings(100 + n_spins, n_spins)
        partly[0, :] = partly[:, 0] = 0.0
        parity = _parity_blocks(n_spins)
        for couplings in (np.zeros((n_spins, n_spins)), partly):
            system = SpinSystem.create(couplings)
            built = [internal_hamiltonian(system), dq_hamiltonian(system)]
            built += [parity.from_standard(_pair_stack(couplings[None], _PAIR_FACTORS[a])) for a in "xyz"]
            for h in built:
                parts = h.view(np.float64)
                assert not np.any((parts == 0.0) & np.signbit(parts))

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5])
    def test_real_stack_is_the_real_part_of_the_complex_one(self, n_spins):
        couplings = np.stack([sample_couplings(110 + n_spins + k, n_spins) for k in range(2)])
        offsets = np.random.default_rng(n_spins).normal(0.0, 500.0, size=(2, n_spins))
        for a, extra in (("x", None), ("y", None), ("z", offsets), ("dq", None)):
            built = _pair_stack(couplings, _PAIR_FACTORS[a], extra)
            real = _pair_stack(couplings, _PAIR_FACTORS[a], extra, dtype=np.float64)
            assert real.dtype == np.float64 and not built.imag.any()
            assert np.array_equal(real, built.real)


def test_kron_power_equals_repeated_kron():
    rng = np.random.default_rng(5)
    for op in (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), rng.normal(size=(2, 3))):
        oracle = np.eye(1, dtype=complex)
        for n in range(6):
            assert np.array_equal(kron_power(op, n), oracle)
            oracle = np.kron(oracle, op)
