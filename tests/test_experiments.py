import numpy as np
import pytest
import scipy.linalg

from spinweave.control import IDEAL, ErrorModel, cycle_unitary
from spinweave.experiments import (
    CoherenceSpectrum,
    DecayCurve,
    FreeWindow,
    ProtectedWindow,
    autocorrelation,
    c_avg,
    cluster_size,
    coherence_intensities,
    fit_decay,
    mqc_experiment,
)
from spinweave.operators import HermitianPropagator, expm_hermitian
from spinweave.sequences import builtin, parse_sequence
from spinweave.spins import (
    SpinSystem,
    collective_operator,
    dq_hamiltonian,
    internal_hamiltonian,
    parity_sectors,
    sample_couplings,
    sample_disorder,
)

from conftest import random_hermitian


class TestAutocorrelation:
    def test_identity_evolution(self):
        system = SpinSystem.create(np.zeros((3, 3)))
        for axis in "xyz":
            curve = autocorrelation(system, builtin("WHH"), IDEAL, 4e-6, axis, [0, 1, 5, 9])
            assert np.allclose(curve.values, 1.0, atol=1e-12)

    def test_free_evolution_conserves_z(self):
        # no pulses: C_zz is constant because H commutes with total S_z
        system = SpinSystem.create(
            sample_couplings(3, 3, 2000.0), global_offset_hz=150.0
        )
        curve = autocorrelation(system, parse_sequence("tau"), IDEAL, 4e-6, "z", range(6))
        assert np.allclose(curve.values, 1.0, atol=1e-12)

    def test_normalized_at_t_zero_and_bounded(self):
        system = SpinSystem.create(sample_couplings(5, 3, 3000.0), disorder_hz=[40, -20, 10])
        curve = autocorrelation(system, builtin("WHH"), IDEAL, 8e-6, "x", range(0, 24, 3))
        assert curve.values[0] == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.abs(curve.values) <= 1.0 + 1e-12)
        assert curve.times[0] == 0.0
        assert curve.times[1] == pytest.approx(3 * builtin("WHH").cycle_time(8e-6))

    @pytest.mark.parametrize("axis", "xyz")
    def test_matches_cycle_by_cycle_conjugation(self, axis):
        # unsorted and repeated blocks: gaps 0, 1, 3, 8 and 8
        blocks = [12, 0, 4, 1, 20, 4, 12]
        system = SpinSystem.create(
            sample_couplings(11, 4, 5000.0), global_offset_hz=1000.0
        )
        seq = builtin("WHH")
        curve = autocorrelation(system, seq, IDEAL, 8e-6, axis, blocks)
        u = cycle_unitary(system, seq, IDEAL, 8e-6)
        s0 = collective_operator(4, axis)
        s_t, expected = s0.copy(), []
        for n in range(max(blocks) + 1):
            if n in blocks:
                expected.append(np.trace(s_t @ s0).real / np.trace(s0 @ s0).real)
            s_t = u @ s_t @ u.conj().T
        assert curve.times.tolist() == [n * seq.cycle_time(8e-6) for n in sorted(set(blocks))]
        assert np.ptp(curve.values) > 0.5
        assert np.abs(curve.values - expected).max() < 1e-12

    def test_rejects_negative_blocks(self):
        system = SpinSystem.create(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            autocorrelation(system, builtin("WHH"), IDEAL, 4e-6, "x", [-1, 0])


class TestCAvg:
    def make(self, values):
        t = np.arange(len(values), dtype=float)
        return DecayCurve(t, np.asarray(values, dtype=float), "x")

    def test_all_ones(self):
        out = c_avg(self.make([1, 1]), self.make([1, 1]), self.make([1, 1]))
        assert np.allclose(out.values, 1.0)

    def test_cube_root(self):
        out = c_avg(self.make([1, 1]), self.make([1, 1]), self.make([1, 0.729]))
        assert out.values[1] == pytest.approx(0.9, abs=1e-12)

    def test_bounded_by_max_input(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.05, 1.0, size=(3, 12))
        out = c_avg(self.make(vals[0]), self.make(vals[1]), self.make(vals[2]))
        assert np.all(out.values <= vals.max(axis=0) + 1e-12)

    def test_sign_disagreement_flagged(self):
        out = c_avg(self.make([1, -0.5]), self.make([1, 0.5]), self.make([1, -0.5]))
        assert out.values[1] < 0  # majority sign
        assert out.meta["sign_disagreements"] == [1]

    def test_grid_mismatch(self):
        a = self.make([1, 1])
        b = DecayCurve(np.array([0.0, 2.0]), np.ones(2), "y")
        with pytest.raises(ValueError, match="time grid"):
            c_avg(a, b, a)


class TestFitDecay:
    def test_recovers_stretched_exponential(self):
        t = np.linspace(0, 0.02, 40)
        c0, t2, g = 1.0, (0.01) ** 1.5, 1.5
        curve = DecayCurve(t, c0 * np.exp(-(t**g) / t2), "avg")
        fit = fit_decay(curve, "stretched")
        assert fit.c0 == pytest.approx(c0, rel=0.01)
        assert fit.t2_eff == pytest.approx(t2, rel=0.01)
        assert fit.stretch == pytest.approx(g, rel=0.01)
        assert fit.converged

    def test_recovers_oscillating_model(self):
        t = np.linspace(0, 1.0, 60)
        c0, t2, g, f, c1 = 0.8, 0.5, 1.1, 3.0, 0.15
        v = c0 * np.cos(2 * np.pi * f * t) * np.exp(-(t**g) / t2) + c1
        fit = fit_decay(DecayCurve(t, v, "avg"), "oscillating")
        assert fit.freq_hz == pytest.approx(f, rel=0.01)
        assert fit.c1 == pytest.approx(c1, rel=0.02)
        assert fit.t2_eff == pytest.approx(t2, rel=0.01)

    def test_constant_curve_hits_upper_bound_flagged(self):
        t = np.linspace(0, 1.0, 20)
        fit = fit_decay(DecayCurve(t, np.ones_like(t), "avg"), "stretched")
        assert fit.at_bound

    def test_requires_six_points(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="6 points"):
            fit_decay(DecayCurve(t, np.exp(-t), "avg"))

    def test_rejects_non_finite_point(self):
        # one nan point once ran eight solves before "decay fit failed from every starting point"
        t = np.linspace(0, 1, 8)
        v = np.exp(-t)
        v[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_decay(DecayCurve(t, v, "avg"))

    def test_default_stretch_bounds(self):
        t = np.linspace(0, 1, 24)
        v = np.exp(-(t**3.0) / 0.3)  # true g outside the stretched default [0.5, 2.5]
        fit = fit_decay(DecayCurve(t, v, "avg"), "stretched")
        assert fit.stretch <= 2.5 + 1e-9


class TestOscillationScaling:
    @pytest.mark.parametrize(
        "name,factor", [("WHH", 1 / np.sqrt(3)), ("MREV16", 1 / 3)]
    )
    def test_recovers_chemical_shift_scaling(self, name, factor):
        # delta pulses, no errors, small couplings: fitted oscillation
        # frequency of C_avg scales with the offset by the cycle's factor
        seq = builtin(name)
        offsets = [1000.0, 1500.0, 2000.0]
        freqs = []
        for off in offsets:
            system = SpinSystem.create(
                sample_couplings(7, 4, 20.0), global_offset_hz=off
            )
            curves = {
                axis: autocorrelation(system, seq, IDEAL, 4e-6, axis, range(0, 129, 2))
                for axis in "xyz"
            }
            fit = fit_decay(c_avg(curves["x"], curves["y"], curves["z"]), "oscillating")
            freqs.append(fit.freq_hz)
        # fitted frequencies are nonnegative (cosine is even in f): a
        # least-squares slope through the origin against |offset|
        offsets = np.abs(offsets)
        slope = np.sum(np.asarray(freqs) * offsets) / np.sum(offsets**2)
        assert slope == pytest.approx(factor, rel=0.02)


class TestCoherenceIntensities:
    def test_diagonal_state_is_zero_quantum_only(self):
        rho = collective_operator(3, "z")
        spec = coherence_intensities(rho, "z")
        assert spec.intensity(0) == pytest.approx(float(np.trace(rho @ rho).real))
        nonzero = spec.intensities[spec.orders != 0]
        assert np.abs(nonzero).max() < 1e-15

    def test_collective_x_in_its_own_basis(self):
        rho = collective_operator(3, "x")
        spec = coherence_intensities(rho, "x")
        assert spec.intensity(0) == pytest.approx(spec.total, rel=1e-12)

    def test_symmetry_and_sum_for_random_hermitian(self):
        rho = random_hermitian(9, 16)
        for axis in "xyz":
            spec = coherence_intensities(rho, axis)
            assert spec.total == pytest.approx(float(np.trace(rho.conj().T @ rho).real), rel=1e-10)
            for n in range(1, 5):
                assert spec.intensity(n) == pytest.approx(spec.intensity(-n), abs=1e-10)

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6])
    def test_dq_evolution_populates_even_orders_only(self, n_spins):
        system = SpinSystem.create(sample_couplings(11, n_spins, 5000.0 / 3.0))
        u = expm_hermitian(dq_hamiltonian(system), 1.2e-4)
        rho0 = collective_operator(n_spins, "z")
        rho = u @ rho0 @ u.conj().T
        spec = coherence_intensities(rho, "z")
        odd = spec.intensities[spec.orders % 2 != 0]
        assert np.abs(odd).max() < 1e-12 * spec.total

    def test_sum_conserved_under_unitary(self):
        rho = random_hermitian(13, 8)
        u = expm_hermitian(random_hermitian(14, 8), 0.3)
        before = coherence_intensities(rho).total
        after = coherence_intensities(u @ rho @ u.conj().T).total
        assert after == pytest.approx(before, rel=1e-12)


class TestMqcExperiment:
    def test_perfect_echo_and_normalization(self):
        system = SpinSystem.create(sample_couplings(15, 4, 5000.0 / 3.0))
        result = mqc_experiment(system, 1e-4)
        assert result.signals[0] == pytest.approx(1.0, abs=1e-12)
        assert result.spectrum.total == pytest.approx(1.0, abs=1e-12)
        assert result.meta["imag_residual"] < 1e-12

    @pytest.mark.parametrize("tau_dq", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tau_dq(self, tau_dq):
        system = SpinSystem.create(sample_couplings(15, 4, 5000.0 / 3.0))
        with pytest.raises(ValueError, match="tau_dq must be finite"):
            mqc_experiment(system, tau_dq)

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_parity_blocked_growth_matches_expm(self, n_spins):
        h = dq_hamiltonian(SpinSystem.create(sample_couplings(40 + n_spins, n_spins, 5000.0 / 3.0)))
        u = HermitianPropagator(h, parity_sectors(n_spins)).at(1e-4)
        assert np.abs(u - scipy.linalg.expm(-1j * h * 1e-4)).max() < 1e-12

    def test_insufficient_phase_resolution(self):
        system = SpinSystem.create(sample_couplings(17, 4, 1000.0))
        with pytest.raises(ValueError, match="alias"):
            mqc_experiment(system, 1e-4, phi_count=8)

    def test_free_window_decays_high_orders(self):
        system = SpinSystem.create(sample_couplings(19, 4, 5000.0 / 3.0))
        base = mqc_experiment(system, 1e-4)
        windowed = mqc_experiment(system, 1e-4, window=FreeWindow(3e-4))
        assert windowed.spectrum.intensity(2) < base.spectrum.intensity(2)

    def test_free_window_matches_expm(self):
        system = SpinSystem.create(
            sample_couplings(23, 5, 5000.0 / 3.0),
            disorder_hz=sample_disorder(24, 5, 200.0),
            global_offset_hz=150.0,
        )
        tau_dq, duration = 1e-4, 2.5e-4
        result = mqc_experiment(system, tau_dq, window=FreeWindow(duration))
        # the same growth/tag/window/reversal protocol with expm propagators
        u_fwd = scipy.linalg.expm(-1j * dq_hamiltonian(system) * tau_dq)
        w = scipy.linalg.expm(-1j * internal_hamiltonian(system) * duration)
        rho0 = collective_operator(5, "z")
        rho_tau = u_fwd @ rho0 @ u_fwd.conj().T
        twice_m = 2 * np.diag(rho0).real
        norm = np.trace(rho0 @ rho0).real
        for phi, signal in zip(result.phases, result.signals):
            tag = np.diag(np.exp(-1j * phi * twice_m / 2))
            rho = w @ tag @ rho_tau @ tag.conj().T @ w.conj().T
            rho = u_fwd.conj().T @ rho @ u_fwd
            assert signal == pytest.approx(np.trace(rho @ rho0).real / norm, abs=1e-12)

    def test_protected_window_preserves_orders(self):
        system = SpinSystem.create(sample_couplings(19, 4, 5000.0 / 3.0))
        base = mqc_experiment(system, 1e-4)
        protected = mqc_experiment(
            system, 1e-4, window=ProtectedWindow(builtin("CORY48"), 2, 4e-6)
        )
        assert protected.spectrum.intensity(2) == pytest.approx(
            base.spectrum.intensity(2), rel=1e-3
        )


def replay_mqc(system, tau_dq, phi_count, w):
    """The tagged-echo protocol replayed at every tag angle, then Fourier-transformed.

    Growth by ``expm``, tag, window ``w`` (or none), reversal and trace
    with ``rho_0`` at each angle; returns the angles, the signals and the
    Fourier coefficients of orders -N..N.
    """
    n = system.n_spins
    u_fwd = scipy.linalg.expm(-1j * dq_hamiltonian(system) * tau_dq)
    rho0 = collective_operator(n, "z")
    rho_tau = u_fwd @ rho0 @ u_fwd.conj().T
    m = np.diag(rho0).real
    norm = np.trace(rho0 @ rho0).real
    phases = 2 * np.pi * np.arange(phi_count) / phi_count
    signals = np.empty(phi_count)
    for k, phi in enumerate(phases):
        tag = np.diag(np.exp(-1j * phi * m))
        rho = tag @ rho_tau @ tag.conj().T
        if w is not None:
            rho = w @ rho @ w.conj().T
        rho = u_fwd.conj().T @ rho @ u_fwd
        signals[k] = np.trace(rho @ rho0).real / norm
    coeffs = np.fft.fft(signals) / phi_count
    return phases, signals, coeffs[np.arange(-n, n + 1) % phi_count]


class TestMqcClosedForm:
    """The order sums of mqc_experiment against the replayed protocol."""

    @pytest.mark.parametrize("window", ["none", "free", "protected"])
    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6])
    def test_matches_replayed_protocol(self, n_spins, window):
        system = SpinSystem.create(
            sample_couplings(100 + n_spins, n_spins, 5000.0 / 3.0),
            disorder_hz=sample_disorder(200 + n_spins, n_spins, 200.0),
            global_offset_hz=150.0,
        )
        tau_dq = 1e-4
        if window == "none":
            win, w = None, None
        elif window == "free":
            win = FreeWindow(2.5e-4)
            w = scipy.linalg.expm(-1j * internal_hamiltonian(system) * win.duration)
        else:
            error = ErrorModel(pulse_width=1e-6, rotation_error=0.02)
            win = ProtectedWindow(builtin("BR24"), 3, 4e-6, error)
            w = np.linalg.matrix_power(cycle_unitary(system, win.sequence, error, win.tau), 3)
        result = mqc_experiment(system, tau_dq, window=win)
        phases, signals, coeffs = replay_mqc(system, tau_dq, result.meta["phi_count"], w)
        assert np.array_equal(result.phases, phases)
        assert np.abs(result.signals - signals).max() < 1e-12
        assert np.array_equal(result.spectrum.orders, np.arange(-n_spins, n_spins + 1))
        assert np.abs(result.spectrum.intensities - coeffs.real).max() < 1e-12
        imag = np.abs(coeffs.imag).max()
        assert abs(result.meta["imag_residual"] - imag) < 1e-12
        if window == "protected":
            # the imperfect cycle does not commute with S_z: a physical residual
            assert imag > 1e-6

    def test_short_grid_is_still_rejected(self):
        system = SpinSystem.create(sample_couplings(17, 3, 1000.0))
        with pytest.raises(ValueError, match="need at least 8"):
            mqc_experiment(system, 1e-4, phi_count=7)
        assert mqc_experiment(system, 1e-4, phi_count=8).signals.shape == (8,)


class TestWindowValidation:
    @pytest.mark.parametrize("duration", [-1e-6, float("nan"), float("inf")])
    def test_free_window_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FreeWindow(duration)

    @pytest.mark.parametrize("cycles", [-2, 2.5, True, "2"])
    def test_protected_window_rejects_bad_cycles(self, cycles):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ProtectedWindow(builtin("WHH"), cycles)

    @pytest.mark.parametrize("tau", [-1e-6, 0.0])
    def test_protected_window_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            ProtectedWindow(builtin("WHH"), 2, tau)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_protected_window_rejects_unbounded_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ProtectedWindow(builtin("WHH"), 2, tau)

    def test_protected_window_rejects_pulse_wider_than_window(self):
        with pytest.raises(ValueError, match="does not fit"):
            ProtectedWindow(builtin("WHH"), 2, 4e-6, ErrorModel(pulse_width=5e-6))

    def test_zero_length_windows_are_identity(self):
        system = SpinSystem.create(sample_couplings(19, 4, 5000.0 / 3.0))
        base = mqc_experiment(system, 1e-4)
        for window in (FreeWindow(0.0), ProtectedWindow(builtin("WHH"), np.int64(0))):
            result = mqc_experiment(system, 1e-4, window=window)
            assert result.meta["window_s"] == 0.0
            assert np.abs(result.spectrum.intensities - base.spectrum.intensities).max() < 1e-14


class TestClusterSize:
    def make_spectrum(self, n_max, intensities):
        return CoherenceSpectrum(np.arange(-n_max, n_max + 1), np.asarray(intensities))

    def test_recovers_single_gaussian(self):
        n = np.arange(-12, 13)
        true_n = 16.0
        spec = self.make_spectrum(12, 0.7 * np.exp(-(n**2) / true_n))
        (fitted,) = cluster_size(spec, components=1)
        assert fitted == pytest.approx(true_n, rel=0.02)

    def test_zero_quantum_only_spectrum_rejected(self):
        vals = np.zeros(9)
        vals[4] = 1.0
        with pytest.raises(ValueError, match="3 distinct"):
            cluster_size(self.make_spectrum(4, vals))

    def test_recovers_double_gaussian(self):
        n = np.arange(-16, 17)
        n1, n2 = 4.0, 40.0
        vals = 1.0 * np.exp(-(n**2) / n1) + 0.25 * np.exp(-(n**2) / n2)
        fitted = cluster_size(self.make_spectrum(16, vals), components=2)
        assert fitted[0] == pytest.approx(n1, rel=0.05)
        assert fitted[1] == pytest.approx(n2, rel=0.05)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            cluster_size(self.make_spectrum(2, np.ones(5)), components=3)
