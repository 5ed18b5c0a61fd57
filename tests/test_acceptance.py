"""Acceptance suite.

One test per numbered acceptance check (the list and tolerances are in the
README), each printing a PASS/FAIL line with the measured values; run with
``pytest -v -s`` to see them inline.  The YXX24 sub-check of check 3 is
expected to fail: on the mandated pulse-width grid, that cycle's infidelity
is dominated by the same dipolar floor already present for instantaneous
pulses, at every desk scale; the assertion message carries the analysis.
"""

import dataclasses
import time

import numpy as np
import pytest

from spinweave.aht import (
    average_h,
    burum_terms,
    dyson_terms,
    magnus_series,
    term_magnitudes,
    toggling_segments,
)
from spinweave.control import (
    SweepSpec,
    ensemble_fidelity,
    nth_order_fidelity,
)
from spinweave.experiments import (
    DecayCurve,
    FreeWindow,
    ProtectedWindow,
    coherence_intensities,
    fit_decay,
    mqc_experiment,
)
from spinweave.harness import run_preset
from spinweave.operators import expm_hermitian, frobenius_magnitude
from spinweave.sequences import (
    BUILTIN_NAMES,
    builtin,
    frame_matrix,
    row_sum_check,
)
from spinweave.spins import (
    SpinSystem,
    collective_operator,
    dipolar_hamiltonian,
    dq_hamiltonian,
    offset_hamiltonian,
    sample_couplings,
    sample_disorder,
)

from conftest import frame_offset_average, loglog_slope

SEED = 2026
SPECTROSCOPIC_FACTORS = {
    "WHH": 1 / np.sqrt(3),
    "MREV8": np.sqrt(2) / 3,
    "MREV16": 1 / 3,
    "BR24": 2 / (3 * np.sqrt(3)),
}
TIME_SUSPENSION = ("CORY48", "YXX24", "YXX48")


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


def rows_by_sequence(rows):
    out = {}
    for r in rows:
        out.setdefault(r.sequence, []).append((r.value, r.mean_infidelity))
    return {k: (np.array([p[0] for p in v]), np.array([p[1] for p in v])) for k, v in out.items()}


def test_criterion_1_table_one_zeroth_order():
    budget, t0 = 5.0, time.time()
    tau = 4e-6
    sys_dip = SpinSystem.create(sample_couplings(SEED, 4, 5000.0 / 3.0))
    sys_off = SpinSystem.create(np.zeros((4, 4)), global_offset_hz=30.0)
    h_dip = dipolar_hamiltonian(sys_dip)
    h_off = offset_hamiltonian(sys_off)
    dip_residuals, ts_residuals, factor_errors = {}, {}, {}
    for name in BUILTIN_NAMES:
        seq = builtin(name)
        h0_d = average_h(toggling_segments(sys_dip, seq, tau), 0)
        dip_residuals[name] = frobenius_magnitude(h0_d) / frobenius_magnitude(h_dip)
        h0_o = average_h(toggling_segments(sys_off, seq, tau), 0)
        ratio = frobenius_magnitude(h0_o) / frobenius_magnitude(h_off)
        if name in TIME_SUSPENSION:
            ts_residuals[name] = ratio
        else:
            factor_errors[name] = abs(ratio - SPECTROSCOPIC_FACTORS[name])
    elapsed = time.time() - t0
    ok = (
        max(dip_residuals.values()) < 1e-10
        and max(ts_residuals.values()) < 1e-10
        and max(factor_errors.values()) < 1e-6
        and elapsed < budget
    )
    report(
        "1",
        ok,
        f"max |H_D^(0)| rel {max(dip_residuals.values()):.1e}; "
        f"max time-susp |H_O^(0)| rel {max(ts_residuals.values()):.1e}; "
        f"max scaling-factor error {max(factor_errors.values()):.1e}",
        elapsed,
        budget,
    )
    assert max(dip_residuals.values()) < 1e-10, dip_residuals
    assert max(ts_residuals.values()) < 1e-10, ts_residuals
    assert max(factor_errors.values()) < 1e-6, factor_errors
    assert elapsed < budget


def test_criterion_2_tau_scaling():
    budget, t0 = 120.0, time.time()
    spec = SweepSpec(
        parameter="tau",
        grid=tuple(np.geomspace(1e-6, 4e-5, 10)),
        n_spins=4,
        n_coupling_sets=8,
        base_seed=SEED,
    )
    slopes = {
        name: loglog_slope(x, y, n_points=4, floor=1e-13, side="small")
        for name, (x, y) in rows_by_sequence(ensemble_fidelity(spec)).items()
    }
    elapsed = time.time() - t0
    first_order = ("WHH", "MREV8", "MREV16", "YXX24", "YXX48")
    third_order = ("BR24", "CORY48")
    ok = (
        all(abs(slopes[s] - 6.0) <= 0.5 for s in first_order)
        and all(abs(slopes[s] - 10.0) <= 1.0 for s in third_order)
        and elapsed < budget
    )
    report(
        "2",
        ok,
        "slopes " + ", ".join(f"{s}={slopes[s]:.2f}" for s in BUILTIN_NAMES),
        elapsed,
        budget,
    )
    for s in first_order:
        assert abs(slopes[s] - 6.0) <= 0.5, (s, slopes[s])
    for s in third_order:
        assert abs(slopes[s] - 10.0) <= 1.0, (s, slopes[s])
    assert elapsed < budget


def test_criterion_3_pulse_width_scaling():
    budget, t0 = 120.0, time.time()
    grid = tuple(np.geomspace(1e-7, 3e-6, 10))
    spec = SweepSpec(
        parameter="pulse_width",
        grid=grid,
        sequences=("WHH", "BR24", "CORY48", "YXX24"),
        n_spins=6,
        n_coupling_sets=4,
        tau=4e-6,
        base_seed=SEED,
    )
    curves = rows_by_sequence(ensemble_fidelity(spec))
    x_whh, y_whh = curves["WHH"]
    slope_whh = loglog_slope(x_whh, y_whh, n_points=4, floor=1e-13, side="small")
    large_slopes = {
        s: loglog_slope(*curves[s], n_points=4, floor=1e-13, side="large")
        for s in ("BR24", "CORY48", "YXX24")
    }
    # diagnostic: the pulse-width-induced excess over the delta-pulse floor
    base = dataclasses.replace(spec, grid=(0.0,), parameter="pulse_width")
    floors = {r.sequence: r.mean_infidelity for r in ensemble_fidelity(base)}
    excess_slope = {}
    for s in ("BR24", "CORY48", "YXX24"):
        x, y = curves[s]
        excess = y - floors[s]
        keep = excess > 1e-13
        if keep.sum() >= 2:
            idx = np.nonzero(keep)[0][-4:]
            excess_slope[s] = float(np.polyfit(np.log10(x[idx]), np.log10(excess[idx]), 1)[0])
        else:
            excess_slope[s] = float("nan")
    elapsed = time.time() - t0
    ok = (
        abs(slope_whh - 2.0) <= 0.3
        and all(abs(large_slopes[s] - 4.0) <= 0.5 for s in large_slopes)
        and elapsed < budget
    )
    report(
        "3",
        ok,
        f"WHH small-end slope={slope_whh:.2f}; large-end "
        + ", ".join(f"{s}={large_slopes[s]:.2f}" for s in large_slopes)
        + "; width-induced excess slopes "
        + ", ".join(f"{s}={excess_slope[s]:.2f}" for s in excess_slope),
        elapsed,
        budget,
    )
    assert abs(slope_whh - 2.0) <= 0.3, slope_whh
    for s in ("BR24", "CORY48"):
        assert abs(large_slopes[s] - 4.0) <= 0.5, (s, large_slopes[s])
    assert elapsed < budget
    # Known-unattainable sub-check, asserted last so the attainable parts
    # are verified above.  YXX24's raw infidelity on this grid is dominated
    # by its delta-pulse dipolar floor (tau-driven, pulse-width independent):
    # the width-induced excess is bounded by ~(t_w/tau)^4 of that floor and
    # only emerges near the grid's end, still steeper than quartic.  Holds
    # at 4, 6, and 8 spins and under both fixed-t_c and grown-t_c timing.
    assert abs(large_slopes["YXX24"] - 4.0) <= 0.5, (
        f"YXX24 large-end slope {large_slopes['YXX24']:.2f} is not within 4 +/- 0.5: "
        f"its raw curve is floor-dominated on t_w in [0.1, 3] us at tau = 4 us "
        f"(delta-pulse floor {floors['YXX24']:.2e}; the width-induced excess, "
        f"slope {excess_slope['YXX24']:.2f} here, stays below that floor and is "
        f"still steeper than quartic at the grid end)"
    )


def test_criterion_4_disorder_scaling():
    budget, t0 = 180.0, time.time()
    sequences = ("WHH", "BR24", "CORY48", "YXX24", "YXX48")
    spec = SweepSpec(
        parameter="disorder_sigma_hz",
        grid=(1.0, 10.0, 30.0, 100.0, 300.0),
        sequences=sequences,
        n_spins=4,
        n_coupling_sets=1,
        n_disorder_samples=100,
        tau=4e-6,
        base_seed=SEED,
    )
    curves = rows_by_sequence(ensemble_fidelity(spec))
    base = dataclasses.replace(spec, grid=(0.0,), n_disorder_samples=1)
    floors = {r.sequence: r.mean_infidelity for r in ensemble_fidelity(base)}
    slopes = {}
    for s in ("WHH", "BR24", "CORY48"):
        x, y = curves[s]
        keep = x >= 10.0
        excess = y[keep] - floors[s]
        assert np.all(excess > 0), (s, excess)
        slopes[s] = float(np.polyfit(np.log10(x[keep]), np.log10(excess), 1)[0])
    flat_ratio = {}
    for s in ("YXX24", "YXX48"):
        x, y = curves[s]
        flat_ratio[s] = float(y[x == 100.0][0] / y[x == 1.0][0])
    elapsed = time.time() - t0
    ok = (
        all(abs(v - 2.0) <= 0.3 for v in slopes.values())
        and all(v <= 3.0 for v in flat_ratio.values())
        and elapsed < budget
    )
    report(
        "4",
        ok,
        "disorder-induced slopes "
        + ", ".join(f"{s}={v:.2f}" for s, v in slopes.items())
        + "; flat ratios "
        + ", ".join(f"{s}={v:.2f}" for s, v in flat_ratio.items()),
        elapsed,
        budget,
    )
    for s, v in slopes.items():
        assert abs(v - 2.0) <= 0.3, (s, v)
    for s, v in flat_ratio.items():
        assert v <= 3.0, (s, v)
    assert elapsed < budget


def test_criterion_5_burum_oracle_and_traceless_terms():
    budget, t0 = 60.0, time.time()
    worst_match = 0.0
    for seed in range(20):
        system = SpinSystem.create(
            sample_couplings(seed, 3, 2000.0),
            disorder_hz=sample_disorder(seed + 500, 3, 60.0),
            global_offset_hz=float(25 * ((seed % 5) - 2)),
        )
        seq = builtin(("WHH", "MREV8", "YXX24")[seed % 3])
        segs = toggling_segments(system, seq, 3e-6)
        series = burum_terms(dyson_terms(segs, 2), seq.cycle_time(3e-6))
        scale = frobenius_magnitude(segs[0].hamiltonian)
        for order in (0, 1):
            diff = frobenius_magnitude(series.terms[order] - average_h(segs, order)) / scale
            worst_match = max(worst_match, diff)
    assert worst_match < 1e-10, worst_match

    sys_dip = SpinSystem.create(sample_couplings(SEED, 4, 5000.0 / 3.0))
    h_dip = dipolar_hamiltonian(sys_dip)
    worst_trace = 0.0
    for name in BUILTIN_NAMES:
        series = magnus_series(sys_dip, builtin(name), 4e-6, 5)
        for n, term in enumerate(series.terms):
            size = frobenius_magnitude(term)
            trace = abs(complex(np.trace(term)))
            if size > 1e-12 * frobenius_magnitude(h_dip):
                ratio = trace / size
                worst_trace = max(worst_trace, ratio)
                assert ratio < 1e-10, (name, n, ratio)
            else:
                # decoupled order: the term itself is numerically zero
                assert trace < 1e-12 * frobenius_magnitude(h_dip), (name, n)
    elapsed = time.time() - t0
    ok = worst_match < 1e-10 and worst_trace < 1e-10 and elapsed < budget
    report(
        "5",
        ok,
        f"worst recursion/closed-form mismatch {worst_match:.1e} (20 seeds); "
        f"worst trace ratio {worst_trace:.1e} (n <= 5, all built-ins)",
        elapsed,
        budget,
    )
    assert elapsed < budget


def test_criterion_6_term_magnitude_reproduction():
    budget, t0 = 30.0, time.time()
    tau = 4e-6
    couplings = sample_couplings(SEED, 4, 420.0 / 3.0)
    sys_dip = SpinSystem.create(couplings)
    sys_off = SpinSystem.create(np.zeros((4, 4)), global_offset_hz=30.0)
    sys_full = SpinSystem.create(couplings, global_offset_hz=30.0)
    h_dip = dipolar_hamiltonian(sys_dip)
    scale = frobenius_magnitude(h_dip)
    worst_zero, spectro_min, ts_max = 0.0, np.inf, 0.0
    for name in BUILTIN_NAMES:
        seq = builtin(name)
        dip = magnus_series(sys_dip, seq, tau, 1)
        off = magnus_series(sys_off, seq, tau, 1)
        full = magnus_series(sys_full, seq, tau, 1)
        dip_mags = term_magnitudes(dip, h_dip)
        cross = frobenius_magnitude(full.terms[1] - dip.terms[1] - off.terms[1]) / scale
        worst_zero = max(worst_zero, dip_mags[0], dip_mags[1], cross)
        off_zero = term_magnitudes(off, h_dip)[0]
        if name in TIME_SUSPENSION:
            ts_max = max(ts_max, off_zero)
        else:
            spectro_min = min(spectro_min, off_zero)
    elapsed = time.time() - t0
    ok = worst_zero < 1e-12 and ts_max < 1e-12 and spectro_min > 1e-3 and elapsed < budget
    report(
        "6",
        ok,
        f"max |H_dip^(0,1)|, |cross^(1)| = {worst_zero:.1e}; "
        f"time-susp |H_off^(0)| max {ts_max:.1e}; spectroscopic min {spectro_min:.1e}",
        elapsed,
        budget,
    )
    assert worst_zero < 1e-12
    assert ts_max < 1e-12
    assert spectro_min > 1e-3  # nonzero by a wide margin
    assert elapsed < budget


def test_criterion_7_nth_order_fidelity_properties():
    budget, t0 = 60.0, time.time()
    # WHH at |H| tau = 0.466 via the RMS eigenvalue measure, uniform 5 kHz
    # couplings on 4 spins (the regime where the reported F_n curves overlap)
    system = SpinSystem.create(5000.0 * (np.ones((4, 4)) - np.eye(4)))
    h = dipolar_hamiltonian(system)
    tau_c = 0.466 / (frobenius_magnitude(h) / np.sqrt(h.shape[0]))
    seq = builtin("WHH")
    series = magnus_series(system, seq, tau_c, 4)
    f0 = nth_order_fidelity(system, seq, tau_c, 0, series=series)
    f4 = nth_order_fidelity(system, seq, tau_c, 4, series=series)
    overlap = abs(np.log10(1 - f4) - np.log10(1 - f0))

    finite_ok = True
    sys4 = SpinSystem.create(sample_couplings(SEED, 4, 5000.0 / 3.0))
    for name in BUILTIN_NAMES:
        series_n = magnus_series(sys4, builtin(name), 2e-6, 8)
        for n in range(9):
            fn = nth_order_fidelity(sys4, builtin(name), 2e-6, n, series=series_n)
            finite_ok &= bool(np.isfinite(fn) and 0.0 <= fn <= 1.0)
    elapsed = time.time() - t0
    ok = overlap < 0.5 and finite_ok and elapsed < budget
    report(
        "7",
        ok,
        f"1-F_0={1 - f0:.2e}, 1-F_4={1 - f4:.2e}, |dlog10|={overlap:.2f}; "
        f"F_n finite for n<=8 on all built-ins: {finite_ok}",
        elapsed,
        budget,
    )
    assert overlap < 0.5, (1 - f0, 1 - f4)
    assert finite_ok
    assert elapsed < budget


def test_criterion_8_frame_matrix_rules():
    budget, t0 = 5.0, time.time()
    for name in TIME_SUSPENSION:
        sums, label = row_sum_check(frame_matrix(builtin(name)))
        assert np.array_equal(sums, np.zeros(3, dtype=int)), name
        assert label == "time-suspension"
    whh = frame_matrix(builtin("WHH"))
    assert [int(np.abs(r).sum()) for r in whh.entries] == [2, 2, 2]

    system = SpinSystem.create(
        np.zeros((4, 4)),
        chemical_shifts_hz=[120.0, -45.0, 60.0, -80.0],
        disorder_hz=[10.0, 5.0, -15.0, 20.0],
        global_offset_hz=35.0,
    )
    scale = frobenius_magnitude(offset_hamiltonian(system))
    worst = 0.0
    for name in BUILTIN_NAMES:
        seq = builtin(name)
        from_frame = frame_offset_average(frame_matrix(seq), system)
        from_engine = average_h(toggling_segments(system, seq, 4e-6), 0)
        worst = max(worst, float(np.abs(from_frame - from_engine).max()) / scale)
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < budget
    report(
        "8",
        ok,
        f"row sums zero for time-suspension; WHH dwell 2/axis; "
        f"worst frame-vs-engine relative deviation {worst:.1e}",
        elapsed,
        budget,
    )
    assert worst < 1e-12
    assert elapsed < budget


def test_criterion_9_mqc_suite():
    budget, t0 = 180.0, time.time()
    # even-order selection and conservation, 2..6 spins
    for n in range(2, 7):
        system = SpinSystem.create(sample_couplings(SEED + n, n, 5000.0 / 3.0))
        rho0 = collective_operator(n, "z")
        total0 = coherence_intensities(rho0).total
        for t_grow in (5e-5, 1.5e-4):
            u = expm_hermitian(dq_hamiltonian(system), t_grow)
            rho = u @ rho0 @ u.conj().T
            spec = coherence_intensities(rho)
            odd = spec.intensities[spec.orders % 2 != 0]
            assert np.abs(odd).max() < 1e-12 * spec.total, n
            assert spec.total == pytest.approx(total0, rel=1e-12)

    system6 = SpinSystem.create(sample_couplings(SEED, 6, 5000.0 / 3.0))
    tau_dq = 1e-4
    echo = mqc_experiment(system6, tau_dq)
    assert echo.signals[0] == pytest.approx(1.0, abs=1e-12)

    cory = builtin("CORY48")
    free_ts = np.array([0.0, 2e-5, 4e-5, 8e-5, 1.2e-4, 1.6e-4, 2.4e-4, 3.2e-4])
    i2_free = []
    for t in free_ts:
        r = mqc_experiment(system6, tau_dq, window=FreeWindow(t) if t > 0 else None)
        i2_free.append(r.spectrum.intensity(2))
    cycles = [0, 1, 2, 4, 8, 16, 24, 32]
    prot_ts = np.array([k * cory.cycle_time(4e-6) for k in cycles])
    i2_prot = []
    for k in cycles:
        win = ProtectedWindow(cory, k, 4e-6) if k > 0 else None
        i2_prot.append(mqc_experiment(system6, tau_dq, window=win).spectrum.intensity(2))
    i2_free = np.array(i2_free) / i2_free[0]
    i2_prot = np.array(i2_prot) / i2_prot[0]
    fit_free = fit_decay(DecayCurve(free_ts, i2_free, "i2"), "stretched")
    fit_prot = fit_decay(DecayCurve(prot_ts, i2_prot, "i2"), "stretched")
    ratio = fit_prot.time_to_1e / fit_free.time_to_1e
    elapsed = time.time() - t0
    ok = ratio >= 5.0 and elapsed < budget
    report(
        "9",
        ok,
        f"even-order selection and sum conservation verified (2-6 spins); "
        f"echo S(0)=1; protected/free I_2 decay-time ratio {ratio:.1f}",
        elapsed,
        budget,
    )
    assert ratio >= 5.0, (fit_free.time_to_1e, fit_prot.time_to_1e)
    assert elapsed < budget


def test_criterion_10_fit_engine_recovery():
    budget, t0 = 30.0, time.time()
    rng = np.random.Generator(np.random.Philox(key=99))
    t = np.linspace(0.0, 1.0, 48)
    worst = 0.0
    for trial in range(50):
        model = "stretched" if trial % 2 == 0 else "oscillating"
        c0 = rng.uniform(0.5, 1.5)
        g = rng.uniform(0.7, 2.2) if model == "stretched" else rng.uniform(0.5, 2.5)
        t1e = rng.uniform(0.25, 1.2)
        t2 = t1e**g
        if model == "stretched":
            values = c0 * np.exp(-(t**g) / t2)
            truth = {"c0": c0, "t2_eff": t2, "stretch": g}
        else:
            f = rng.uniform(1.2, 6.0)
            c1 = rng.uniform(0.0, 0.3)
            values = c0 * np.cos(2 * np.pi * f * t) * np.exp(-(t**g) / t2) + c1
            truth = {"c0": c0, "t2_eff": t2, "stretch": g, "freq_hz": f, "c1": c1}
        fit = fit_decay(DecayCurve(t, values, "synthetic"), model)
        for key, val in truth.items():
            err = abs(getattr(fit, key) - val) / max(abs(val), 1e-12)
            worst = max(worst, err)
            assert err <= 0.01, (trial, model, key, err)
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < budget
    report("10", ok, f"50 draws, worst parameter error {worst:.1e}", elapsed, budget)
    assert elapsed < budget


def test_criterion_11_preset_determinism(tmp_path):
    budget, t0 = 120.0, time.time()
    p1 = run_preset("fig2a", profile="ci", outdir=tmp_path / "t1", threads=1)[0]
    p8 = run_preset("fig2a", profile="ci", outdir=tmp_path / "t8", threads=8)[0]
    rows1 = [l for l in p1.read_text().splitlines() if not l.startswith("#")]
    rows8 = [l for l in p8.read_text().splitlines() if not l.startswith("#")]
    identical = rows1 == rows8
    elapsed = time.time() - t0
    ok = identical and elapsed < budget
    report(
        "11",
        ok,
        f"fig2a ci rerun at 1 vs 8 threads: {len(rows1)} data rows byte-identical={identical}",
        elapsed,
        budget,
    )
    assert identical
    assert len(rows1) > 1
    assert elapsed < budget
