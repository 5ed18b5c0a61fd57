import functools
import os
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from spinweave import control
from spinweave.control import (
    DISORDER_SEED_OFFSET,
    ErrorModel,
    IDEAL,
    NumericalDiagnosticError,
    SweepSpec,
    WeakPulseWarning,
    collective_phase_operator,
    cycle_unitary,
    ensemble_fidelity,
    fidelity,
    nth_order_fidelities,
    nth_order_fidelity,
    pulse_unitary,
    resolve_threads,
)
from spinweave.aht import magnus_series
from spinweave.control import _CycleKernel, _eigenphase_fidelity, _ensemble_infidelities
from spinweave.operators import (
    HermitianPropagator,
    expm_hermitian,
    require_unitary,
    unitary_root,
)
from spinweave.sequences import BUILTIN_NAMES, builtin, parse_sequence, schedule, validate_cyclic
from spinweave.spins import (
    SIGMA,
    SpinSystem,
    collective_operator,
    dipolar_hamiltonian,
    internal_hamiltonian,
    internal_hamiltonian_stack,
    magnetization,
    magnetization_sectors,
    parity_sectors,
    sample_couplings,
    sample_disorder,
)

from conftest import loglog_slope, oracle_phases, random_unitary


def rotation_2x2(axis: str, angle: float) -> np.ndarray:
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * SIGMA[axis]


class TestErrorModel:
    def test_symmetric_transients(self):
        err = ErrorModel.symmetric_transients(0.02, pulse_width=1e-6)
        assert err.transient_leading == err.transient_trailing == 0.02
        assert not err.is_delta

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            ErrorModel(pulse_width=-1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_physical_inputs_raise(bad):
    couplings = sample_couplings(3, 3, 1000.0)
    system = SpinSystem.create(couplings)
    whh = builtin("WHH")
    with pytest.raises(ValueError, match="tau"):
        schedule(whh, bad)
    with pytest.raises(ValueError, match="pulse width"):
        schedule(whh, 4e-6, bad)
    with pytest.raises(ValueError, match="tau"):
        cycle_unitary(system, whh, IDEAL, bad)
    with pytest.raises(ValueError, match="tau"):
        ensemble_fidelity(SweepSpec("tau", (bad,), ("WHH",), n_spins=3, n_coupling_sets=1))
    for field in ("pulse_width", "rotation_error", "transient_leading", "transient_trailing"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ErrorModel(**{field: bad})
    bad_couplings = couplings.copy()
    bad_couplings[0, 1] = bad_couplings[1, 0] = bad
    with pytest.raises(ValueError, match="couplings_hz must be finite"):
        SpinSystem.create(bad_couplings)
    with pytest.raises(ValueError, match="chemical_shifts_hz must be finite"):
        SpinSystem.create(couplings, chemical_shifts_hz=[0.0, bad, 0.0])
    with pytest.raises(ValueError, match="disorder_hz must be finite"):
        SpinSystem.create(couplings, disorder_hz=[bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="global_offset_hz must be finite"):
        SpinSystem.create(couplings, global_offset_hz=bad)


class TestPulseUnitary:
    def test_ideal_x_pulse(self):
        u = pulse_unitary(0.0, IDEAL, 2)
        sx = collective_operator(2, "x")
        oracle = scipy.linalg.expm(-1j * (np.pi / 2) * sx)
        assert np.abs(u - oracle).max() < 1e-13

    def test_full_overrotation_is_pi_pulse(self):
        u_pi = pulse_unitary(0.0, ErrorModel(rotation_error=1.0), 1)
        assert np.abs(u_pi - (-1j) * SIGMA["x"]).max() < 1e-14
        u_half = pulse_unitary(0.0, IDEAL, 1)
        assert np.abs(u_pi - u_half @ u_half).max() < 1e-14

    def test_transient_composition_against_brute_force(self):
        alpha = 0.01
        err = ErrorModel.symmetric_transients(alpha)
        u = pulse_unitary(0.0, err, 1)
        kick = rotation_2x2("y", alpha * np.pi / 2)
        oracle = kick @ rotation_2x2("x", np.pi / 2) @ kick
        assert np.abs(u - oracle).max() < 1e-14

    def test_phase_sets_transient_axis(self):
        # pulse along -x carries transients along -y
        alpha = 0.03
        u = pulse_unitary(180.0, ErrorModel.symmetric_transients(alpha), 1)
        kick = rotation_2x2("y", -alpha * np.pi / 2)
        oracle = kick @ rotation_2x2("x", -np.pi / 2) @ kick
        assert np.abs(u - oracle).max() < 1e-14

    def test_delta_pulse_factors_over_spins(self):
        err = ErrorModel(rotation_error=0.04, transient_leading=0.01, transient_trailing=0.03)
        single = pulse_unitary(90.0, err, 1)
        oracle = np.kron(np.kron(single, single), np.kron(single, single))
        assert np.abs(pulse_unitary(90.0, err, 4) - oracle).max() < 1e-13

    def test_finite_width_needs_hamiltonian(self):
        with pytest.raises(ValueError, match="internal Hamiltonian"):
            pulse_unitary(0.0, ErrorModel(pulse_width=1e-6), 2, h_int=None)

    def test_weak_pulse_warning(self):
        system = SpinSystem.create([[0.0, 5e5], [5e5, 0.0]])
        h = dipolar_hamiltonian(system)
        with pytest.warns(WeakPulseWarning):
            pulse_unitary(0.0, ErrorModel(pulse_width=1e-4), 2, h_int=h)


class TestCycleUnitary:
    def test_error_free_cycle_is_identity_up_to_sign(self):
        system = SpinSystem.create(np.zeros((3, 3)))
        for name in ("WHH", "MREV8", "YXX24"):
            u = cycle_unitary(system, builtin(name), IDEAL, 4e-6)
            sign = np.trace(u).real / u.shape[0]
            assert abs(abs(sign) - 1.0) < 1e-12
            assert np.abs(u - sign * np.eye(u.shape[0])).max() < 1e-12

    def test_single_window_is_free_evolution(self):
        system = SpinSystem.create(sample_couplings(5, 2, 700.0))
        h = dipolar_hamiltonian(system)
        tau = 3e-6
        u = cycle_unitary(system, parse_sequence("tau"), IDEAL, tau)
        assert np.abs(u - scipy.linalg.expm(-1j * h * tau)).max() < 1e-13

    def test_whh_two_spin_nine_matrix_oracle(self):
        # independent composition with scipy expm, d/2pi = 5000/3 Hz, tau = 4 us
        d_hz = 5000.0 / 3.0
        tau = 4e-6
        system = SpinSystem.create([[0.0, d_hz], [d_hz, 0.0]])
        h = dipolar_hamiltonian(system)
        sx, sy = collective_operator(2, "x"), collective_operator(2, "y")

        def pulse(phase_deg):
            phi = np.deg2rad(phase_deg)
            return scipy.linalg.expm(
                -1j * (np.pi / 2) * (np.cos(phi) * sx + np.sin(phi) * sy)
            )

        free = lambda t: scipy.linalg.expm(-1j * h * t)
        oracle = (
            free(tau)
            @ pulse(0)
            @ free(tau)
            @ pulse(270)
            @ free(2 * tau)
            @ pulse(90)
            @ free(tau)
            @ pulse(180)
            @ free(tau)
        )
        u = cycle_unitary(system, builtin("WHH"), IDEAL, tau)
        assert np.abs(u - oracle).max() < 1e-13

    @pytest.mark.parametrize(
        "error",
        [
            IDEAL,
            ErrorModel(rotation_error=0.05),
            ErrorModel.symmetric_transients(0.03),
            ErrorModel(pulse_width=1e-6),
            ErrorModel(pulse_width=2e-6, rotation_error=0.02, transient_leading=0.01, transient_trailing=0.04),
        ],
    )
    def test_unitary_for_all_error_models(self, error):
        system = SpinSystem.create(
            sample_couplings(9, 3, 1500.0), disorder_hz=[20, -10, 5]
        )
        u = cycle_unitary(system, builtin("MREV8"), error, 4e-6)
        require_unitary(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cycle_is_not_unitary(self, bad, monkeypatch):
        # a disorder field puts WHH on the lab-frame path
        system = SpinSystem.create(sample_couplings(9, 3, 1500.0), disorder_hz=[20.0, -10.0, 5.0])
        kernel = _CycleKernel([system], IDEAL)
        blocks = [np.full_like(b, bad) for b in kernel.free.blocks(4e-6)]
        monkeypatch.setattr(kernel.free, "blocks", lambda t: blocks)
        with pytest.raises(NumericalDiagnosticError, match="not unitary"):
            kernel.cycles(builtin("WHH"), 4e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parity_cycle_is_not_unitary(self, bad, monkeypatch):
        system = SpinSystem.create(sample_couplings(9, 3, 1500.0))
        kernel = _CycleKernel([system], IDEAL)
        blocks = [np.full_like(b, bad) for b in kernel.parity.blocks(4e-6)]
        monkeypatch.setattr(kernel.parity, "blocks", lambda t: blocks)
        with pytest.raises(NumericalDiagnosticError, match="not unitary"):
            kernel.cycles(builtin("WHH"), 4e-6)


def expm_cycle_oracle(system, seq, error, tau):
    """Cycle propagator composed step by step from ``scipy.linalg.expm``."""
    n = system.n_spins
    h = internal_hamiltonian(system)
    sx, sy = collective_operator(n, "x"), collective_operator(n, "y")

    def s_phi(phase_deg):
        phi = np.deg2rad(phase_deg)
        return np.cos(phi) * sx + np.sin(phi) * sy

    def pulse(phase_deg):
        quarter = np.pi / 2
        if error.is_delta:
            core = scipy.linalg.expm(-1j * quarter * (1 + error.rotation_error) * s_phi(phase_deg))
        else:
            omega1 = quarter / error.pulse_width
            generator = h + omega1 * (1 + error.rotation_error) * s_phi(phase_deg)
            core = scipy.linalg.expm(-1j * generator * error.pulse_width)
        lead = scipy.linalg.expm(-1j * quarter * error.transient_leading * s_phi(phase_deg + 90))
        trail = scipy.linalg.expm(-1j * quarter * error.transient_trailing * s_phi(phase_deg + 90))
        return trail @ core @ lead

    steps = {}
    u = np.eye(system.dim, dtype=complex)
    for kind, value in schedule(seq, tau, error.pulse_width):
        if (kind, value) not in steps:
            steps[kind, value] = (
                scipy.linalg.expm(-1j * h * value) if kind == "free" else pulse(value)
            )
        u = steps[kind, value] @ u
    return u


ORACLE_ERRORS = {
    "ideal": IDEAL,
    "rotation": ErrorModel(rotation_error=0.03),
    "transients": ErrorModel(transient_leading=0.01, transient_trailing=0.04),
    "finite": ErrorModel(
        pulse_width=1e-6, rotation_error=0.02, transient_leading=0.015, transient_trailing=0.03
    ),
    # t_w = tau at tau = 4 us leaves no free step mid-cycle: every built-in
    # opens with a pulse, and pulses follow pulses (2 pairs in WHH, 47 in YXX48)
    "finite-width-tau": ErrorModel(
        pulse_width=4e-6, rotation_error=0.02, transient_leading=0.015, transient_trailing=0.03
    ),
}


class TestCycleKernelOracle:
    """The sector-blocked, Kronecker-factored kernel against dense expm products."""

    @pytest.mark.parametrize("n_spins", [3, 4, 5, 6])
    @pytest.mark.parametrize("error_name", sorted(ORACLE_ERRORS))
    def test_matches_expm_composition(self, n_spins, error_name):
        system = SpinSystem.create(
            sample_couplings(40 + n_spins, n_spins, 5000.0 / 3.0),
            disorder_hz=sample_disorder(50 + n_spins, n_spins, 200.0),
            global_offset_hz=300.0,
        )
        error = ORACLE_ERRORS[error_name]
        for name in BUILTIN_NAMES:
            seq = builtin(name)
            u = cycle_unitary(system, seq, error, 4e-6)
            oracle = expm_cycle_oracle(system, seq, error, 4e-6)
            assert np.abs(u - oracle).max() < 1e-12, name

    def test_weak_finite_pulse_warns_in_cycle(self):
        system = SpinSystem.create([[0.0, 5e5], [5e5, 0.0]])
        with pytest.warns(WeakPulseWarning):
            cycle_unitary(system, builtin("WHH"), ErrorModel(pulse_width=1e-4), 4e-4)


MINUS_IDENTITY = parse_sequence("tau - x - tau - x - tau - x - tau - x", "minus_identity")


def count_lab_cycles(monkeypatch) -> list[str]:
    """Names of the sequences that ``_CycleKernel`` composes in the lab frame from now on."""
    calls = []
    lab = _CycleKernel._lab_cycles
    monkeypatch.setattr(_CycleKernel, "_lab_cycles", lambda self, seq, tau: calls.append(seq.name) or lab(self, seq, tau))
    return calls


class TestParityBranch:
    """Ideal, offset-free cycles walked on parity blocks in the toggling frame."""

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6, 7])
    def test_matches_lab_kernel_and_expm_oracle(self, n_spins, monkeypatch):
        systems = [SpinSystem.create(sample_couplings(80 + n_spins + k, n_spins, 5000.0 / 3.0)) for k in range(2)]
        kernel = _CycleKernel(systems, IDEAL)
        off_block = np.subtract.outer(magnetization(n_spins), magnetization(n_spins)) % 2 == 1
        sequences = [builtin(name) for name in BUILTIN_NAMES] + [MINUS_IDENTITY]
        lab = [kernel._lab_cycles(seq, 4e-6) for seq in sequences]
        calls = count_lab_cycles(monkeypatch)
        for seq, expected in zip(sequences, lab):
            u = kernel.cycles(seq, 4e-6)
            assert not u[:, off_block].any(), seq.name
            assert np.abs(u - expected).max() < 1e-12, seq.name
            assert np.abs(u[1] - expm_cycle_oracle(systems[1], seq, IDEAL, 4e-6)).max() < 1e-12, seq.name
        assert calls == []
        assert validate_cyclic(MINUS_IDENTITY) == -1

    @pytest.mark.parametrize(
        "case",
        [
            "non-cardinal phases",
            "non-cyclic",
            "disorder",
            "global offset",
            "chemical shift",
            "pulse width",
            "rotation error",
            "transient",
        ],
    )
    def test_other_inputs_take_the_lab_frame_path(self, case, monkeypatch):
        couplings = sample_couplings(7, 4, 5000.0 / 3.0)
        fields = {
            "disorder": {"disorder_hz": [30.0, 0.0, 0.0, 0.0]},
            "global offset": {"global_offset_hz": 50.0},
            "chemical shift": {"chemical_shifts_hz": [0.0, 0.0, -20.0, 0.0]},
        }
        errors = {
            "pulse width": ErrorModel(pulse_width=1e-6),
            "rotation error": ErrorModel(rotation_error=0.01),
            "transient": ErrorModel.symmetric_transients(0.01),
        }
        sequences = {
            "non-cardinal phases": parse_sequence("tau - p45 - tau - p45 - tau - p45 - tau - p45", "p45"),
            "non-cyclic": parse_sequence("tau - x - 2tau - y - tau", "non_cyclic"),
        }
        system = SpinSystem.create(couplings, **fields.get(case, {}))
        error, seq = errors.get(case, IDEAL), sequences.get(case, builtin("CORY48"))
        calls = count_lab_cycles(monkeypatch)
        u = cycle_unitary(system, seq, error, 4e-6)
        assert calls == [seq.name]
        assert np.abs(u - expm_cycle_oracle(system, seq, error, 4e-6)).max() < 1e-12


class TestSectorFactorization:
    """The H_int stack factored by magnetization sector, as the cycle kernel does."""

    @pytest.mark.parametrize("n_spins", [2, 3, 5, 7])
    def test_matches_expm(self, n_spins):
        systems = [
            SpinSystem.create(
                sample_couplings(60 + n_spins + k, n_spins, 5000.0 / 3.0),
                disorder_hz=sample_disorder(70 + n_spins + k, n_spins, 150.0),
                global_offset_hz=-400.0,
            )
            for k in range(2)
        ]
        free = HermitianPropagator(internal_hamiltonian_stack(systems), magnetization_sectors(n_spins))
        for t in (1e-6, 3.7e-5):
            u = free.at(t)
            for k, system in enumerate(systems):
                oracle = scipy.linalg.expm(-1j * internal_hamiltonian(system) * t)
                assert np.abs(u[k] - oracle).max() < 1e-12
        for k, system in enumerate(systems):
            norm = np.abs(np.linalg.eigvalsh(internal_hamiltonian(system))).max()
            assert free.spectral_norm[k] == pytest.approx(norm, rel=1e-12)


class TestFidelity:
    def test_identity(self):
        assert fidelity(np.eye(8, dtype=complex)) == 1.0

    def test_global_phase_invariance(self):
        u = random_unitary(2, 8)
        assert fidelity(np.exp(0.7j) * u, u) == pytest.approx(1.0, abs=1e-12)

    def test_pi_pulse_orthogonal_to_identity(self):
        u = scipy.linalg.expm(-1j * np.pi * SIGMA["x"] / 2)  # exp(-i pi S_x)
        assert fidelity(u, m=1) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(4, dtype=complex), np.eye(8, dtype=complex))

    @pytest.mark.parametrize("m", [0, -2, 2.5])
    def test_rejects_bad_root_order(self, m):
        u = random_unitary(4, 4)
        with pytest.raises(ValueError, match="root order"):
            fidelity(u, m=m)
        with pytest.raises(ValueError, match="root order"):
            fidelity(u, u, m=m)

    def test_root_scaling_matches_manual_root(self):
        u = random_unitary(4, 16)
        manual = abs(np.trace(unitary_root(u, 6))) / 16
        assert fidelity(u, m=6) == pytest.approx(manual, abs=1e-14)
        # the root and the fidelity share one eigen path; check both against
        # the general eigen-solver on the same branch
        c, mu = oracle_phases(u)
        oracle = abs(np.exp(1j * (mu + c) / 6).sum()) / 16
        assert manual == pytest.approx(oracle, abs=1e-14)
        assert fidelity(u, m=6) == pytest.approx(oracle, abs=1e-14)


class TestNthOrderFidelity:
    def test_decoupled_orders_reduce_to_plain_fidelity(self):
        # WHH cancels dipolar orders 0 and 1, so F_0 = F_1 = F
        system = SpinSystem.create(sample_couplings(21, 3, 5000.0 / 3.0))
        tau = 4e-6
        seq = builtin("WHH")
        u = cycle_unitary(system, seq, IDEAL, tau)
        f_plain = fidelity(u, m=seq.cycle_windows)
        for order in (0, 1):
            fn = nth_order_fidelity(system, seq, tau, order)
            assert fn == pytest.approx(f_plain, abs=1e-12)

    def test_converges_to_one_at_small_tau(self):
        system = SpinSystem.create(sample_couplings(22, 2, 2000.0))
        fn = nth_order_fidelity(system, builtin("WHH"), 1e-8, 6)
        assert fn > 1 - 1e-12

    def test_plural_equals_one_order_calls_bit_for_bit(self):
        system = SpinSystem.create(sample_couplings(24, 4, 5000.0 / 3.0))
        seq, tau = builtin("WHH"), 6e-6
        series = magnus_series(system, seq, tau, 8)
        orders = [3, 0, 8, 8, 5]
        many = nth_order_fidelities(system, seq, tau, orders, series=series)
        u_exp = cycle_unitary(system, seq, IDEAL, tau)
        for order, f in zip(orders, many):
            assert f == nth_order_fidelity(system, seq, tau, order, series=series)
            u_th = expm_hermitian(series.partial_sum(order), tau)
            assert f == fidelity(u_exp, u_th, m=seq.cycle_windows)
        assert len(set(many)) > 1
        assert nth_order_fidelities(system, seq, tau, [0, 2]) == [
            nth_order_fidelity(system, seq, tau, n) for n in (0, 2)
        ]

    def test_order_beyond_series(self):
        system = SpinSystem.create(sample_couplings(23, 2, 1000.0))
        from spinweave.aht import magnus_series

        series = magnus_series(system, builtin("WHH"), 2e-6, 2)
        with pytest.raises(ValueError, match="beyond"):
            nth_order_fidelity(system, builtin("WHH"), 2e-6, 5, series=series)


class TestEnsembleFidelity:
    def test_negligible_couplings_give_zero_infidelity(self):
        spec = SweepSpec(
            parameter="tau",
            grid=(4e-6,),
            sequences=("WHH",),
            n_spins=2,
            n_coupling_sets=2,
            coupling_sigma_hz=1e-12,
        )
        rows = ensemble_fidelity(spec, threads=1)
        assert len(rows) == 1
        assert rows[0].mean_infidelity < 1e-12

    def test_thread_count_does_not_change_results(self):
        spec = SweepSpec(
            parameter="tau",
            grid=(2e-6, 6e-6),
            sequences=("WHH", "MREV8"),
            n_spins=3,
            n_coupling_sets=3,
        )
        rows1 = ensemble_fidelity(spec, threads=1)
        rows4 = ensemble_fidelity(spec, threads=4)
        assert [(r.value, r.sequence, r.mean_infidelity) for r in rows1] == [
            (r.value, r.sequence, r.mean_infidelity) for r in rows4
        ]
        # 4-spin finite pulses with disorder: one stack per grid value
        spec = SweepSpec(
            parameter="disorder_sigma_hz",
            grid=(5.0, 50.0, 500.0),
            sequences=("WHH", "CORY48", "YXX48"),
            n_spins=4,
            n_coupling_sets=2,
            n_disorder_samples=4,
            pulse_width=1e-6,
        )
        runs = [ensemble_fidelity(spec, threads=t) for t in (1, 2, 3)]
        for rows in runs[1:]:
            assert [(r.value, r.sequence, r.mean_infidelity, r.stddev) for r in rows] == [
                (r.value, r.sequence, r.mean_infidelity, r.stddev) for r in runs[0]
            ]

    def test_many_threads_run_every_task_once(self):
        # more threads than cores and a short switch interval: a task lost or
        # run twice would leave a zero or a mismatch in the member array
        spec = SweepSpec(
            parameter="rotation_error",
            grid=tuple(np.linspace(0.0, 0.05, 12)),
            sequences=("WHH", "MREV8"),
            n_spins=3,
            n_coupling_sets=2,
            n_disorder_samples=2,
            disorder_sigma_hz=40.0,
        )
        reference = _ensemble_infidelities(spec, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = _ensemble_infidelities(spec, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(reference > 0.0)
        assert np.array_equal(stressed, reference)

    def test_disorder_stream_reproducible(self):
        spec = SweepSpec(
            parameter="disorder_sigma_hz",
            grid=(10.0, 100.0),
            sequences=("WHH",),
            n_spins=3,
            n_coupling_sets=1,
            n_disorder_samples=5,
        )
        a = ensemble_fidelity(spec, threads=2)
        b = ensemble_fidelity(spec, threads=3)
        assert [r.mean_infidelity for r in a] == [r.mean_infidelity for r in b]

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            SweepSpec(parameter="coupling", grid=(1.0,))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(parameter="tau", grid=())


def member_system(spec, set_idx, dis_idx, disorder_sigma_hz):
    """Member ``(set_idx, dis_idx)`` of a sweep, built the way a caller would."""
    disorder = (
        sample_disorder(spec.base_seed + DISORDER_SEED_OFFSET + dis_idx, spec.n_spins, disorder_sigma_hz)
        if disorder_sigma_hz > 0.0
        else np.zeros(spec.n_spins)
    )
    return SpinSystem.create(
        sample_couplings(spec.base_seed + set_idx, spec.n_spins, spec.coupling_sigma_hz),
        disorder_hz=disorder,
        global_offset_hz=spec.global_offset_hz,
    )


STACK_SPECS = {
    # 7 spins stack 4 members at a time: chunks of 4 and 1
    "7-spin-chunk-boundary": SweepSpec(
        parameter="rotation_error",
        grid=(0.0, 0.02),
        sequences=("WHH", "BR24"),
        n_spins=7,
        n_coupling_sets=5,
        global_offset_hz=120.0,
        base_seed=31,
    ),
    "4-spin-finite-disorder-transients": SweepSpec(
        parameter="disorder_sigma_hz",
        grid=(10.0, 300.0),
        sequences=("WHH", "MREV8", "CORY48", "YXX24"),
        n_spins=4,
        n_coupling_sets=3,
        n_disorder_samples=4,
        pulse_width=1e-6,
        transient=0.02,
        base_seed=32,
    ),
    # each width builds its own windows; at t_w = tau pulses follow pulses
    "4-spin-pulse-width": SweepSpec(
        parameter="pulse_width",
        grid=(1e-6, 4e-6),
        sequences=("WHH", "CORY48", "YXX48"),
        n_spins=4,
        n_coupling_sets=2,
        n_disorder_samples=3,
        disorder_sigma_hz=100.0,
        rotation_error=0.01,
        transient=0.01,
        base_seed=33,
    ),
    # ideal and offset-free: the parity branch; 6 spins stack 16 members
    "6-spin-parity-blocks": SweepSpec(
        parameter="tau",
        grid=(2e-6, 4e-6),
        sequences=("WHH", "BR24", "CORY48", "YXX24"),
        n_spins=6,
        n_coupling_sets=16,
        base_seed=34,
    ),
    # one kernel for every tau: its free steps and P_0 F_a windows are kept
    # for one tau at a time
    "4-spin-finite-tau": SweepSpec(
        parameter="tau",
        grid=(1e-6, 2e-6, 4e-6),
        sequences=("WHH", "MREV8", "CORY48"),
        n_spins=4,
        n_coupling_sets=2,
        n_disorder_samples=2,
        disorder_sigma_hz=80.0,
        pulse_width=5e-7,
        base_seed=36,
    ),
    # odd N on the parity branch, in chunks of 4 and 1
    "7-spin-parity-chunk-boundary": SweepSpec(
        parameter="tau",
        grid=(2e-6, 4e-6),
        sequences=("WHH", "MREV8", "YXX48"),
        n_spins=7,
        n_coupling_sets=5,
        base_seed=35,
    ),
}


class TestStackedEnsemble:
    """Every stacked member equals the one-member public calls bit for bit."""

    @pytest.mark.parametrize("case", sorted(STACK_SPECS))
    def test_members_equal_single_calls(self, case):
        spec = STACK_SPECS[case]
        stacked = _ensemble_infidelities(spec, threads=1)
        members = [(s, d) for s in range(spec.n_coupling_sets) for d in range(spec.n_disorder_samples)]
        assert stacked.shape == (len(spec.grid), len(spec.sequences), len(members))
        for i, value in enumerate(spec.grid):
            disorder_sigma = value if spec.parameter == "disorder_sigma_hz" else spec.disorder_sigma_hz
            rotation = value if spec.parameter == "rotation_error" else spec.rotation_error
            tau = value if spec.parameter == "tau" else spec.tau
            error = ErrorModel(
                pulse_width=value if spec.parameter == "pulse_width" else spec.pulse_width,
                rotation_error=rotation,
                transient_leading=spec.transient,
                transient_trailing=spec.transient,
            )
            for j, name in enumerate(spec.sequences):
                seq = builtin(name)
                for k, (set_idx, dis_idx) in enumerate(members):
                    system = member_system(spec, set_idx, dis_idx, disorder_sigma)
                    single = 1.0 - fidelity(cycle_unitary(system, seq, error, tau), m=seq.cycle_windows)
                    assert stacked[i, j, k] == single, (value, name, k)

    @pytest.mark.parametrize(
        "parameter,grid,kernels",
        [("tau", (1e-6, 2e-6, 4e-6), 2), ("rotation_error", (0.0, 0.01, 0.02), 6)],
    )
    def test_a_tau_sweep_builds_one_kernel_per_chunk(self, parameter, grid, kernels, monkeypatch):
        # 7 spins stack 4 members at a time: chunks of 4 and 1; a tau sweep
        # shares each chunk's kernel across its grid, any other sweep does not
        spec = SweepSpec(parameter=parameter, grid=grid, sequences=("WHH", "BR24"), n_spins=7, n_coupling_sets=5)
        built = []
        init = _CycleKernel.__init__
        monkeypatch.setattr(_CycleKernel, "__init__", lambda self, *a: built.append(len(a[0])) or init(self, *a))
        stacked = _ensemble_infidelities(spec, threads=1)
        assert sorted(built) == sorted([4, 1] * (kernels // 2))
        assert np.array_equal(_ensemble_infidelities(spec, threads=2), stacked)

    def test_kernel_keeps_the_free_steps_of_one_tau(self):
        systems = [SpinSystem.create(sample_couplings(40 + k, 4)) for k in range(2)]
        durations = lambda seq, tau: {value for kind, value in schedule(seq, tau) if kind == "free"}
        cory, whh = builtin("CORY48"), builtin("WHH")
        kernel = _CycleKernel(systems, IDEAL)
        first = kernel.cycles(cory, 2e-6)
        kernel.cycles(whh, 4e-6)
        assert set(kernel.parity._blocks) == durations(whh, 4e-6)
        kernel.cycles(cory, 4e-6)
        assert set(kernel.parity._blocks) == durations(whh, 4e-6) | durations(cory, 4e-6)
        assert np.array_equal(kernel.cycles(cory, 2e-6), first)
        assert set(kernel.parity._blocks) == durations(cory, 2e-6)
        # finite pulses: the free steps and the P_0 F_a windows, P_0 itself kept
        system = SpinSystem.create(sample_couplings(42, 4), disorder_hz=[30.0, 0.0, 0.0, 0.0])
        finite = _CycleKernel([system], ErrorModel(pulse_width=1e-6))
        durations = lambda tau: {value for kind, value in schedule(cory, tau, 1e-6) if kind == "free"}
        assert durations(2e-6) - durations(4e-6)
        first = finite.cycles(cory, 2e-6)
        finite.cycles(cory, 4e-6)
        assert set(finite.free._blocks) <= durations(4e-6)
        assert 0.0 in finite.folded and set(finite.folded) - {0.0} <= durations(4e-6)
        assert np.array_equal(finite.cycles(cory, 2e-6), first)

    def test_weak_finite_pulse_warns_in_sweep(self):
        spec = SweepSpec(
            parameter="tau",
            grid=(4e-4,),
            sequences=("WHH",),
            n_spins=2,
            n_coupling_sets=2,
            coupling_sigma_hz=5e5,
            pulse_width=1e-4,
        )
        with pytest.warns(WeakPulseWarning):
            ensemble_fidelity(spec, threads=1)


class TestEigenphaseFidelity:
    def test_member_off_unit_circle_raises(self):
        stack = np.stack([random_unitary(5, 8), 1.001 * random_unitary(6, 8)])
        assert _eigenphase_fidelity(stack[:1], 3)[0] <= 1.0
        with pytest.raises(NumericalDiagnosticError, match="unit circle"):
            _eigenphase_fidelity(stack, 3)

    @pytest.mark.parametrize("tau,infidelity", [(1e-6, 3.723e-5), (4e-6, 5.953e-4)])
    def test_minus_identity_dsl_cycle_matches_eigvals(self, tau, infidelity):
        # four x pulses make the ideal composite -I at odd N; its eigenphases
        # sit on both sides of pi, and the branch of the solve keeps them
        # together around the trace phase
        u = cycle_unitary(SpinSystem.create(sample_couplings(1, 5)), MINUS_IDENTITY, IDEAL, tau)
        m = MINUS_IDENTITY.cycle_windows
        principal = np.angle(np.linalg.eigvals(u))
        assert (principal > 3.0).any() and (principal < -3.0).any()
        c, mu = oracle_phases(u)
        assert np.abs(c).max() < 0.5
        oracle = min(abs(np.exp(1j * (mu + c) / m).sum()) / 32, 1.0)
        assert fidelity(u, m=m) == pytest.approx(oracle, abs=1e-12)
        assert 1.0 - fidelity(u, m=m) == pytest.approx(infidelity, rel=1e-3)

    def test_stack_equals_one_member_calls(self):
        stack = np.stack([random_unitary(seed, 16) for seed in range(7)])
        for m in (1, 4):
            values = _eigenphase_fidelity(stack, m)
            assert [fidelity(u, m=m) for u in stack] == list(values)


def parity_block_unitary(seed: int, n_spins: int, phases=None) -> np.ndarray:
    """A unitary with random blocks on the two parity sectors and exact zeros between them.

    ``phases``, one list per sector (even, odd), sets the blocks' eigenphases instead.
    """
    layout = parity_sectors(n_spins)
    u = np.zeros((1 << n_spins, 1 << n_spins), dtype=complex)
    for k, span in enumerate(layout.spans):
        block = random_unitary(seed + k, span.stop - span.start)
        if phases is not None:
            block = (block * np.exp(1j * np.asarray(phases[k]))) @ block.conj().T
        rows = layout.order[span]
        u[np.ix_(rows, rows)] = block
    return u


def oracle_fidelity(u: np.ndarray, m: int) -> float:
    """``|Tr u^{1/m}| / d`` from the eigvals oracle of the whole matrix."""
    c, mu = oracle_phases(u)
    return min(abs(np.exp(1j * (mu + c) / m).sum()) / u.shape[0], 1.0)


def eigenphase_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Shapes of the stacks ``_eigenphase_fidelity`` solves from now on."""
    shapes = []
    solve = control._unitary_eigenphases
    monkeypatch.setattr(control, "_unitary_eigenphases", lambda u, *a, **k: shapes.append(u.shape) or solve(u, *a, **k))
    return shapes


class TestParitySplitFidelity:
    """Members with exact zeros between the parity sectors are solved on two blocks of d/2."""

    @pytest.mark.parametrize("n_spins", [1, 2, 4, 5])
    def test_matches_eigvals_oracle(self, n_spins, monkeypatch):
        u = parity_block_unitary(3 * n_spins, n_spins)
        dim = u.shape[0]
        shapes = eigenphase_shapes(monkeypatch)
        for m in (1, 3, 16):
            assert fidelity(u, m=m) == pytest.approx(oracle_fidelity(u, m), rel=0, abs=1e-13)
        assert set(shapes) == {(1, 2, dim // 2, dim // 2)}

    def test_mixed_stack_equals_one_member_calls(self, monkeypatch):
        stack = np.stack(
            [parity_block_unitary(10, 4), random_unitary(11, 16), parity_block_unitary(12, 4), random_unitary(13, 16)]
        )
        shapes = eigenphase_shapes(monkeypatch)
        for m in (1, 4):
            values = _eigenphase_fidelity(stack, m)
            assert [fidelity(u, m=m) for u in stack] == list(values)
        assert (2, 16, 16) in shapes and (2, 2, 8, 8) in shapes

    def test_one_by_one_unitary(self):
        # d = 1 has no parity halves
        assert fidelity([[1j]], m=2) == 1.0
        with pytest.raises(ValueError, match="not unitary"):
            fidelity([[1.1]])

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.0])
    def test_non_unitary_split_input_is_rejected(self, scale, monkeypatch):
        # exact zeros between the parities, so the input is checked on its halves
        u = parity_block_unitary(30, 4)
        odd = parity_sectors(4).order[8:]
        u[np.ix_(odd, odd)] *= scale
        shapes = eigenphase_shapes(monkeypatch)
        with pytest.raises(ValueError, match="not unitary"):
            fidelity(u, m=4)
        assert shapes == []

    def test_block_centres_across_pi_are_taken_within_pi(self):
        # np.angle puts the even block's trace phase near +pi and the odd
        # block's near -pi; their roots are combined as if both sat near +pi
        offsets = np.array([0.1, 0.05, 0.0, 0.02])
        u = parity_block_unitary(20, 3, phases=[np.pi - offsets, np.pi + offsets])
        assert not u[np.subtract.outer(magnetization(3), magnetization(3)) % 2 == 1].any()
        near_pi = np.exp(1j * (np.pi + np.concatenate([-offsets, offsets])) / 2).sum() / 8
        assert fidelity(u, m=2) == pytest.approx(abs(near_pi), rel=0, abs=1e-14)
        assert fidelity(u, m=2) == pytest.approx(oracle_fidelity(u, 2), rel=0, abs=1e-14)

    @pytest.mark.parametrize(
        "n_spins,phases",
        [
            (1, [[0.0], [np.pi]]),  # -1 exactly on the cut of the whole trace phase
            (2, [[1.5, -1.5], [np.pi + 0.3, np.pi - 0.3]]),
            (2, [[0.94, 0.61], [0.05, -2.6]]),  # a phase 0.009 rad from the whole cut
            (2, [[0.03, -2.43], [2.32, -2.98]]),  # the same, whole trace phase near -pi
            (3, [np.pi - np.linspace(0.0, 2.5, 4), np.pi + np.linspace(0.0, 2.5, 4)]),
        ],
    )
    def test_split_takes_the_dense_branch(self, n_spins, phases, monkeypatch):
        # block phases spread wide enough that each block's own cut is not
        # the whole member's; F must not depend on the off-block zeros
        u = parity_block_unitary(50, n_spins, phases=phases)
        coupled = u.copy()
        even, odd = parity_sectors(n_spins).order.reshape(2, -1)
        coupled[even[0], odd[0]] = 1e-300
        shapes = eigenphase_shapes(monkeypatch)
        for m in (1, 2, 48):
            split = fidelity(u, m=m)
            assert split == pytest.approx(oracle_fidelity(u, m), rel=0, abs=1e-13)
            assert split == pytest.approx(fidelity(u, np.eye(len(u)), m=m), rel=0, abs=1e-13)
            assert split == pytest.approx(fidelity(coupled, m=m), rel=0, abs=1e-13)
        assert (1, 2, len(u) // 2, len(u) // 2) in shapes and (1, len(u), len(u)) in shapes


class TestParityBlockFidelity:
    """Z-split, X^{(x)N}-symmetric members are solved on the parity blocks of the cycle kernel."""

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6, 7])
    def test_parity_path_cycle_matches_eigvals_oracle(self, n_spins, monkeypatch):
        system = SpinSystem.create(sample_couplings(70 + n_spins, n_spins))
        dim = 1 << n_spins
        shapes = eigenphase_shapes(monkeypatch)
        for name in ("WHH", "CORY48"):
            seq = builtin(name)
            u = cycle_unitary(system, seq, IDEAL, 4e-6)
            assert np.array_equal(u, u[::-1, ::-1])
            for m in (1, seq.cycle_windows):
                assert fidelity(u, m=m) == pytest.approx(oracle_fidelity(u, m), rel=0, abs=1e-13)
        blocks = (1, 4, dim // 4, dim // 4) if n_spins % 2 == 0 else (1, 1, dim // 2, dim // 2)
        assert set(shapes) == {blocks}

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_z_split_member_without_x_symmetry_solves_its_halves(self, n_spins, monkeypatch):
        # a diagonal phase keeps the zeros between the parities but breaks s -> ~s
        u = cycle_unitary(SpinSystem.create(sample_couplings(90 + n_spins, n_spins)), builtin("BR24"), IDEAL, 4e-6)
        dim = len(u)
        u = np.exp(1j * np.linspace(0.0, 0.4, dim))[:, None] * u
        shapes = eigenphase_shapes(monkeypatch)
        for m in (1, 24):
            assert fidelity(u, m=m) == pytest.approx(oracle_fidelity(u, m), rel=0, abs=1e-13)
        assert set(shapes) == {(1, 2, dim // 2, dim // 2)}

    def test_mixed_stack_equals_one_member_calls(self, monkeypatch):
        system = SpinSystem.create(sample_couplings(95, 4))
        parity = cycle_unitary(system, builtin("YXX24"), IDEAL, 4e-6)
        stack = np.stack([parity, random_unitary(96, 16), parity_block_unitary(97, 4), parity.T.copy()])
        shapes = eigenphase_shapes(monkeypatch)
        for m in (1, 24):
            values = _eigenphase_fidelity(stack, m)
            assert [fidelity(u, m=m) for u in stack] == list(values)
        assert {(1, 16, 16), (1, 2, 8, 8), (2, 4, 4, 4)} <= set(shapes)

    @pytest.mark.parametrize("n_spins", [4, 5])
    def test_non_unitary_block_input_is_rejected(self, n_spins):
        u = cycle_unitary(SpinSystem.create(sample_couplings(98, n_spins)), builtin("WHH"), IDEAL, 4e-6)
        with pytest.raises(ValueError, match="not unitary"):
            fidelity((1.0 + 1e-6) * u, m=4)


@functools.cache
def global_phase_cases() -> dict[str, np.ndarray]:
    """Unitaries whose fidelity must not move, and whose roots must only turn, under a global phase."""
    fig6a_member = SpinSystem.create(  # member 0 of the ci fig6a row at 5 kHz disorder
        sample_couplings(2026, 4), disorder_hz=sample_disorder(2026 + DISORDER_SEED_OFFSET, 4, 5000.0)
    )
    spread = np.linspace(0.0, 0.3, 8)
    return {
        "dense": random_unitary(40, 16),
        "parity-centres-across-pi": parity_block_unitary(41, 4, phases=[np.pi - spread, np.pi + spread]),
        "minus-identity-dsl": cycle_unitary(SpinSystem.create(sample_couplings(1, 5)), MINUS_IDENTITY, IDEAL, 1e-6),
        "fig6a-br24-5khz": cycle_unitary(fig6a_member, builtin("BR24"), IDEAL, 4e-6),
    }


class TestGlobalPhaseInvariance:
    """The cut of the solve turns with the unitary, so F = |Tr U^{1/m}| / d ignores a global phase."""

    @pytest.mark.parametrize("case", ["dense", "parity-centres-across-pi", "minus-identity-dsl", "fig6a-br24-5khz"])
    @given(phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True), m=st.sampled_from([1, 4, 48]))
    def test_fidelity_and_root(self, case, phi, m):
        u = global_phase_cases()[case]
        turned = np.exp(1j * phi) * u
        assert fidelity(turned, m=m) == pytest.approx(fidelity(u, m=m), rel=0, abs=1e-13)
        root = unitary_root(turned, m)
        assert np.abs(np.linalg.matrix_power(root, m) - turned).max() < 1e-10


def mp_infidelity(system: SpinSystem, seq, tau: float) -> float:
    """``1 - |Tr U^{1/M}| / d`` of an ideal delta-pulse cycle, built and rooted at the working precision.

    Free steps are ``expm(-i H_int t)`` of the float H_int's exact values,
    pulses the exact one-spin rotations ``exp(-i (pi/2) S_phi)`` to the
    power N, and the root takes each eigenphase on the trace-centred branch.
    """
    n, d = system.n_spins, 1 << system.n_spins
    h = mpmath.matrix(internal_hamiltonian(system).tolist())
    free, u = {}, mpmath.eye(d)
    for kind, value in schedule(seq, tau):
        if kind == "free":
            if value not in free:
                free[value] = mpmath.expm(-1j * value * h)
            step = free[value]
        else:
            # one spin: (I - i sigma_phi) / sqrt(2); N spins: the product over bits
            phi = mpmath.radians(value)
            r = (mpmath.eye(2) - 1j * mpmath.matrix([[0, mpmath.expj(-phi)], [mpmath.expj(phi), 0]])) / mpmath.sqrt(2)
            step = mpmath.matrix(
                [[mpmath.fprod(r[(i >> k) & 1, (j >> k) & 1] for k in range(n)) for j in range(d)] for i in range(d)]
            )
        u = step * u
    lam, _ = mpmath.eig(u)
    mu = mpmath.arg(sum(lam))
    c = [mpmath.arg(x * mpmath.expj(-mu)) for x in lam]
    assert max(abs(x) for x in c) < 3.0  # no phase near the cut, so the branch is unambiguous
    m = seq.cycle_windows
    return float(1 - abs(sum(mpmath.expj((mu + x) / m) for x in c)) / d)


class TestExtendedPrecisionFidelity:
    """1-F of 3-spin cycles against a 40-digit build of the same cycle."""

    @pytest.mark.parametrize("seq", [MINUS_IDENTITY, builtin("WHH")], ids=["minus-identity-dsl", "WHH"])
    def test_matches_40_digit_oracle(self, seq):
        system = SpinSystem.create(sample_couplings(3, 3))
        checked = 0
        for tau in (2.5e-7, 1e-6, 4e-6, 1.6e-5, 6.4e-5):
            infidelity = 1.0 - fidelity(cycle_unitary(system, seq, IDEAL, tau), m=seq.cycle_windows)
            with mpmath.workdps(40):
                oracle = mp_infidelity(system, seq, tau)
            if oracle >= 1e-10:
                assert infidelity == pytest.approx(oracle, rel=1e-6)
                checked += 1
        assert checked >= 2


class TestLoglogSlope:
    def test_exact_power_law(self):
        x = np.geomspace(1, 100, 8)
        assert loglog_slope(x, 3.0 * x**2.5, floor=0.0) == pytest.approx(2.5, abs=1e-12)

    def test_floor_filtering_and_sides(self):
        x = np.geomspace(1e-6, 1e-3, 10)
        y = 1e-2 * x**2
        y[:3] = 1e-14  # below the floor
        assert loglog_slope(x, y, n_points=4, floor=1e-13, side="small") == pytest.approx(2.0, abs=1e-9)
        assert loglog_slope(x, y, n_points=4, floor=1e-13, side="large") == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="noise floor"):
            loglog_slope(np.array([1.0, 2.0]), np.array([1e-15, 1e-16]))


def test_resolve_threads_follows_affinity_mask(monkeypatch):
    monkeypatch.delenv("SPINWEAVE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert resolve_threads() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_threads() == 64


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv("SPINWEAVE_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(5) == 5
    monkeypatch.delenv("SPINWEAVE_THREADS")
    assert resolve_threads() >= 1


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_resolve_threads_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SPINWEAVE_THREADS", value)
    with pytest.raises(ValueError, match="SPINWEAVE_THREADS must be an integer >= 1"):
        resolve_threads()
    assert resolve_threads(2) == 2


@pytest.mark.parametrize("threads", [0, -3, 2.0, True])
def test_resolve_threads_rejects_bad_argument(threads):
    # 0 and -3 were once clamped to 1 without a word
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        resolve_threads(threads)


def test_collective_phase_operator_interpolates_axes():
    n = 2
    sx, sy = collective_operator(n, "x"), collective_operator(n, "y")
    assert np.abs(collective_phase_operator(n, 0.0) - sx).max() < 1e-15
    assert np.abs(collective_phase_operator(n, 90.0) - sy).max() < 1e-15
    assert np.abs(collective_phase_operator(n, 180.0) + sx).max() < 1e-15
