import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from spinweave import aht
from spinweave.aht import (
    NEGLIGIBLE_MAGNITUDE,
    PULSE_SLICES,
    TogglingSegment,
    average_h,
    burum_terms,
    convergence_check,
    dyson_terms,
    magnus_series,
    term_magnitudes,
    toggling_segments,
)
from spinweave.control import IDEAL, ErrorModel, cycle_unitary, fidelity
from spinweave.operators import frobenius_magnitude
from spinweave.sequences import (
    BUILTIN_NAMES,
    NonCyclicSequenceError,
    builtin,
    parse_sequence,
    schedule,
    validate_cyclic,
)
from spinweave.spins import (
    SpinSystem,
    collective_rotation,
    dipolar_hamiltonian,
    embedded_spin,
    internal_hamiltonian,
    offset_hamiltonian,
    sample_couplings,
    sample_disorder,
)

from conftest import random_hermitian


def random_system(seed, n=3):
    return SpinSystem.create(
        sample_couplings(seed, n, 2000.0),
        disorder_hz=sample_disorder(seed + 1000, n, 50.0),
        global_offset_hz=float(20 * ((seed % 5) - 2)),
    )


class TestTogglingSegments:
    def test_no_pulse_sequence(self):
        system = random_system(1)
        segs = toggling_segments(system, parse_sequence("3tau"), 2e-6)
        assert len(segs) == 1
        assert segs[0].duration == pytest.approx(6e-6)
        assert np.abs(segs[0].hamiltonian - internal_hamiltonian(system)).max() < 1e-12

    def test_whh_segment_durations(self):
        tau = 4e-6
        segs = toggling_segments(random_system(2), builtin("WHH"), tau)
        assert [s.duration for s in segs] == pytest.approx([tau, tau, 2 * tau, tau, tau])

    def test_segments_are_isospectral(self):
        system = random_system(3)
        h = internal_hamiltonian(system)
        ref = np.linalg.eigvalsh(h)
        for seg in toggling_segments(system, builtin("MREV8"), 3e-6):
            assert np.abs(np.linalg.eigvalsh(seg.hamiltonian) - ref).max() < 1e-10 * max(
                np.abs(ref).max(), 1.0
            )

    def test_rejects_non_cyclic(self):
        with pytest.raises(NonCyclicSequenceError):
            toggling_segments(random_system(4), parse_sequence("tau - x - tau"), 1e-6)

    def test_finite_width_slicing(self):
        tau, tw = 4e-6, 1e-6
        seq = builtin("WHH")
        segs = toggling_segments(random_system(5), seq, tau, pulse_width=tw)
        assert len(segs) == 5 + 4 * PULSE_SLICES
        assert sum(s.duration for s in segs) == pytest.approx(seq.cycle_time(tau))

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            TogglingSegment(np.eye(2, dtype=complex), 0.0)


def reference_toggling_segments(system, seq, tau, pulse_width=0.0):
    """The dense walk: every segment is ``u^dag H_int u`` with ``u`` the d x d pulse rotations so far."""
    h_int = internal_hamiltonian(system)
    validate_cyclic(seq)
    n_spins = system.n_spins
    segments = []
    u_rf = np.eye(system.dim, dtype=np.complex128)
    for kind, value in schedule(seq, tau, pulse_width):
        if kind == "free":
            segments.append(TogglingSegment(u_rf.conj().T @ h_int @ u_rf, value))
            continue
        if pulse_width > 0.0:
            dt = pulse_width / PULSE_SLICES
            for k in range(PULSE_SLICES):
                angle = (np.pi / 2) * (k + 0.5) / PULSE_SLICES
                u_mid = collective_rotation(n_spins, value, angle) @ u_rf
                segments.append(TogglingSegment(u_mid.conj().T @ h_int @ u_mid, dt))
        u_rf = collective_rotation(n_spins, value, np.pi / 2) @ u_rf
    return segments


def offset_case(n, offsets):
    couplings = sample_couplings(2026, n)
    if offsets == "none":
        return SpinSystem.create(couplings)
    if offsets == "global":
        return SpinSystem.create(couplings, global_offset_hz=300.0)
    return SpinSystem.create(
        couplings,
        chemical_shifts_hz=np.linspace(-50.0, 80.0, n),
        disorder_hz=sample_disorder(7, n, 300.0),
    )


class TestFrameSegments:
    """Delta-pulse cardinal segments read off the frame matrix, against the dense walk."""

    @pytest.mark.parametrize("offsets", ["none", "global", "disorder"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_match_dense_walk(self, n, offsets):
        system = offset_case(n, offsets)
        scale = frobenius_magnitude(internal_hamiltonian(system))
        for name in BUILTIN_NAMES:
            segs = toggling_segments(system, builtin(name), 3e-6)
            reference = reference_toggling_segments(system, builtin(name), 3e-6)
            assert [s.duration for s in segs] == [s.duration for s in reference], name
            for seg, ref in zip(segs, reference):
                assert np.abs(seg.hamiltonian - ref.hamiltonian).max() <= 1e-14 * scale, name
                # S_y has imaginary elements, H_D^(a) and S_x, S_z real ones
                on_y = np.abs(ref.hamiltonian.imag).max() > 1e-9 * scale
                assert seg.hamiltonian.dtype == (np.complex128 if on_y else np.float64), name
                if offsets == "none":
                    assert not on_y

    @pytest.mark.parametrize(
        "text, pulse_width",
        [
            ("tau - -x - tau - y - 2tau - -y - tau - x - tau", 5e-7),
            ("tau - p45 - 2tau - -p45 - tau", 0.0),
            ("tau - x - tau - p45 - 2tau - -p45 - tau - -x - tau", 0.0),
        ],
    )
    def test_dense_walk_kept_bit_for_bit(self, text, pulse_width):
        system = offset_case(4, "disorder")
        seq = parse_sequence(text)
        segs = toggling_segments(system, seq, 3e-6, pulse_width)
        reference = reference_toggling_segments(system, seq, 3e-6, pulse_width)
        assert len(segs) == len(reference)
        for seg, ref in zip(segs, reference):
            assert seg.duration == ref.duration
            assert seg.hamiltonian.dtype == ref.hamiltonian.dtype == np.complex128
            assert np.array_equal(seg.hamiltonian, ref.hamiltonian)


class TestAverageH:
    def test_single_segment(self):
        h = random_hermitian(7, 8)
        segs = [TogglingSegment(h, 1.5e-6)]
        assert np.abs(average_h(segs, 0) - h).max() < 1e-15
        assert np.abs(average_h(segs, 1)).max() == 0.0

    def test_whh_offset_average_matches_frame_prediction(self):
        # WHH's zeroth-order offset average under this sign convention:
        # (1/3) sum_i a_i (S_z - S_y - S_x), dwell 2 windows per axis
        shifts = [100.0, -60.0, 40.0]
        system = SpinSystem.create(np.zeros((3, 3)), chemical_shifts_hz=shifts)
        h0 = average_h(toggling_segments(system, builtin("WHH"), 4e-6), 0)
        a = 2 * np.pi * np.array(shifts)
        predicted = sum(
            a[i]
            * (embedded_spin(3, i, "z") - embedded_spin(3, i, "y") - embedded_spin(3, i, "x"))
            for i in range(3)
        ) / 3.0
        assert np.abs(h0 - predicted).max() < 1e-12 * np.abs(predicted).max()

    def test_time_suspension_zeroth_order_vanishes(self):
        system = random_system(8, n=3)
        h_scale = frobenius_magnitude(internal_hamiltonian(system))
        for name in ("CORY48", "YXX24", "YXX48"):
            h0 = average_h(toggling_segments(system, builtin(name), 4e-6), 0)
            assert frobenius_magnitude(h0) < 1e-12 * h_scale, name

    def test_whh_full_first_order_vanishes(self):
        # WHH also zeroes the offset and cross first-order terms
        system = random_system(9, n=3)
        segs = toggling_segments(system, builtin("WHH"), 4e-6)
        h1 = average_h(segs, 1)
        assert frobenius_magnitude(h1) < 1e-12 * frobenius_magnitude(segs[0].hamiltonian)

    def test_mrev8_dipolar_first_order_vanishes(self):
        system = SpinSystem.create(sample_couplings(10, 3, 2500.0))
        segs = toggling_segments(system, builtin("MREV8"), 4e-6)
        h1 = average_h(segs, 1)
        assert frobenius_magnitude(h1) < 1e-10 * frobenius_magnitude(segs[0].hamiltonian)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            average_h([TogglingSegment(np.eye(2, dtype=complex), 1.0)], 2)


class TestDysonTerms:
    def test_p1_is_cycle_time_times_average(self):
        segs = toggling_segments(random_system(11), builtin("MREV8"), 3e-6)
        t_c = sum(s.duration for s in segs)
        p = dyson_terms(segs, 1)
        assert np.abs(p[0] - t_c * average_h(segs, 0)).max() < 1e-12

    def test_single_segment_power_series(self):
        h = random_hermitian(12, 4)
        dt = 0.8
        p = dyson_terms([TogglingSegment(h, dt)], 30)
        gen = h * dt
        expected = np.eye(4, dtype=complex)
        factorial = 1.0
        for n in range(1, 31):
            expected = expected @ gen
            factorial *= n
            assert np.abs(p[n - 1] - expected / factorial).max() < 1e-12 * max(
                np.abs(expected / factorial).max(), 1e-30
            )

    def test_two_segment_p2_against_adaptive_quadrature(self):
        system = SpinSystem.create(sample_couplings(13, 2, 0.05))  # O(1) rad/s scale
        h1 = dipolar_hamiltonian(system)
        h2 = offset_hamiltonian(
            SpinSystem.create(np.zeros((2, 2)), chemical_shifts_hz=[0.07, -0.11])
        ) + 0.3 * h1
        d1, d2 = 0.7, 1.1
        segs = [TogglingSegment(h1, d1), TogglingSegment(h2, d2)]
        p2 = dyson_terms(segs, 2)[1]

        # adaptive quadrature over the three smooth cells of {t2 < t1}:
        # the integrand is H(t1) @ H(t2) with a constant product per cell
        one = lambda y, x: 1.0
        tri1, _ = scipy.integrate.dblquad(one, 0.0, d1, 0.0, lambda x: x, epsabs=1e-12)
        rect, _ = scipy.integrate.dblquad(one, d1, d1 + d2, 0.0, lambda x: d1, epsabs=1e-12)
        tri2, _ = scipy.integrate.dblquad(one, d1, d1 + d2, d1, lambda x: x, epsabs=1e-12)
        oracle = (h1 @ h1) * tri1 + (h2 @ h1) * rect + (h2 @ h2) * tri2
        assert np.abs(p2 - oracle).max() < 1e-9

    def test_order_bounds(self):
        segs = [TogglingSegment(np.eye(2, dtype=complex), 1.0)]
        with pytest.raises(ValueError):
            dyson_terms(segs, 0)
        with pytest.raises(ValueError):
            dyson_terms(segs, 80)


class TestBurumRecursion:
    @pytest.mark.parametrize("seed", range(10))
    def test_orders_zero_one_match_closed_forms(self, seed):
        system = random_system(seed)
        seq = builtin(("WHH", "MREV8", "YXX24")[seed % 3])
        segs = toggling_segments(system, seq, 3e-6)
        series = burum_terms(dyson_terms(segs, 2), seq.cycle_time(3e-6))
        scale = frobenius_magnitude(segs[0].hamiltonian)
        assert np.abs(series.terms[0] - average_h(segs, 0)).max() < 1e-10 * scale
        assert np.abs(series.terms[1] - average_h(segs, 1)).max() < 1e-10 * scale

    def test_single_segment_higher_orders_cancel(self):
        h = random_hermitian(31, 2, scale=0.9)
        series = burum_terms(dyson_terms([TogglingSegment(h, 1.0)], 30), 1.0)
        assert np.abs(series.terms[0] - h).max() < 1e-12
        for term in series.terms[1:]:
            assert frobenius_magnitude(term) < 1e-12 * frobenius_magnitude(h)

    def test_magnus_terms_traceless_whh(self):
        system = SpinSystem.create(sample_couplings(33, 3, 5000.0 / 3.0))
        series = magnus_series(system, builtin("WHH"), 4e-6, 5)
        h_dip = dipolar_hamiltonian(system)
        for n, term in enumerate(series.terms):
            size = frobenius_magnitude(term)
            if size > 1e-12 * frobenius_magnitude(h_dip):
                assert abs(np.trace(term)) < 1e-10 * size, f"order {n}"

    def test_reexponentiation_defect_non_increasing(self):
        # offsets break the accidental commuting structure of 2-spin dipolar
        # frames, so convergence over n is visible above the roundoff floor
        system = SpinSystem.create(
            sample_couplings(35, 2, 2000.0), disorder_hz=[400.0, -250.0]
        )
        tau = 8e-6
        seq = builtin("WHH")
        u_exp = cycle_unitary(system, seq, IDEAL, tau)
        t_c = seq.cycle_time(tau)
        series = magnus_series(system, seq, tau, 8)
        defects = []
        for n in (2, 4, 6, 8):
            u_th = scipy.linalg.expm(-1j * t_c * series.partial_sum(n))
            defects.append(np.linalg.norm(u_th - u_exp))
        assert defects[0] > 10 * defects[-1]  # convergence actually visible
        assert all(b <= a * (1 + 1e-9) + 1e-13 for a, b in zip(defects, defects[1:]))

    def test_scale_consistency_terms_proportional_to_tau_power(self):
        system = SpinSystem.create(sample_couplings(37, 3, 5000.0 / 3.0))
        seq = builtin("WHH")
        tau = 4e-6
        full = magnus_series(system, seq, tau, 4)
        half = magnus_series(system, seq, tau / 2, 4)
        for n in range(5):
            rescaled = half.terms[n] * 2**n
            size = frobenius_magnitude(full.terms[n])
            if size < 1e-20:
                continue
            assert np.abs(rescaled - full.terms[n]).max() < 1e-9 * size, f"order {n}"

    def test_order_cap_enforced(self):
        system = SpinSystem.create(sample_couplings(39, 2, 1000.0))
        with pytest.raises(ValueError, match="cap"):
            magnus_series(system, builtin("CORY48"), 2e-6, 73)
        # one cap of 72 for every cycle, however many pulses it has
        series = magnus_series(system, builtin("CORY48"), 2e-6, 9)
        assert series.max_order == 9


def reference_dyson_terms(segments, n_max):
    """Order-by-order Dyson recursion, one matmul per (segment, n, j)."""
    dim = segments[0].hamiltonian.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    d = [eye] + [np.zeros_like(eye) for _ in range(n_max)]
    for seg in segments:
        gen = -1j * seg.hamiltonian * seg.duration
        a = eye
        powers = [eye]
        for j in range(1, n_max + 1):
            a = (a @ gen) / j
            powers.append(a)
        d = [
            sum(powers[j] @ d[n - j] for j in range(n + 1))
            for n in range(n_max + 1)
        ]
    return [(1j) ** n * d[n] for n in range(1, n_max + 1)]


def reference_burum_terms(dyson, cycle_time):
    """Order-by-order Burum recursion over a dict of W^k blocks, no flush."""
    n_terms = len(dyson)
    d = {n: (-1j) ** n * dyson[n - 1] for n in range(1, n_terms + 1)}
    omega = {}
    powers = {}  # (k, n) -> order-n part of W^k
    for n in range(1, n_terms + 1):
        correction = np.zeros_like(d[1])
        for k in range(2, n + 1):
            powers[(k, n)] = sum(
                omega[m] @ powers[(k - 1, n - m)] for m in range(1, n - k + 2)
            )
            correction = correction + powers[(k, n)] / float(math.factorial(k))
        omega[n] = d[n] - correction
        powers[(1, n)] = omega[n]
    raw = [(1j / cycle_time) * omega[n + 1] for n in range(n_terms)]
    return [(t + t.conj().T) / 2.0 for t in raw]


def subnormal_count(a):
    parts = np.asarray(a).view(np.float64)
    return int(np.count_nonzero((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny)))


def _tau_at(system, h_tau):
    """tau with |H| tau = h_tau, |H| the RMS eigenvalue of the dipolar Hamiltonian."""
    h = dipolar_hamiltonian(system)
    return h_tau / (frobenius_magnitude(h) / np.sqrt(h.shape[0]))


_UNIFORM_4 = SpinSystem.create(5000.0 * (np.ones((4, 4)) - np.eye(4)))
_RANDOM_4 = SpinSystem.create(sample_couplings(2026, 4, 5000.0 / 3.0))
_RANDOM_6 = SpinSystem.create(sample_couplings(2027, 6, 420.0 / 3.0), global_offset_hz=30.0)

# (system, sequence, tau, Dyson orders); the WHH cycle is 6 tau, so the
# small-scale case has |H| t_c = 1e-3
ORACLE_CASES = {
    "whh-uniform-71": (_UNIFORM_4, "WHH", _tau_at(_UNIFORM_4, 0.466), 71),
    "whh-random-71": (_RANDOM_4, "WHH", _tau_at(_RANDOM_4, 0.466), 71),
    "br24-6spin-5": (_RANDOM_6, "BR24", 4e-6, 6),
    "cory48-6spin-5": (_RANDOM_6, "CORY48", 4e-6, 6),
    "whh-small-scale-71": (_UNIFORM_4, "WHH", _tau_at(_UNIFORM_4, 1e-3 / 6), 71),
}


class TestRecursionOracle:
    """The GEMM-packed recursions against the plain order-by-order loops."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_reference_loops(self, case):
        system, name, tau, n_dyson = ORACLE_CASES[case]
        seq = builtin(name)
        t_c = seq.cycle_time(tau)
        h_d = frobenius_magnitude(dipolar_hamiltonian(system))
        segments = toggling_segments(system, seq, tau)
        dyson = dyson_terms(segments, n_dyson)
        reference = reference_dyson_terms(segments, n_dyson)
        for n, (new, ref) in enumerate(zip(dyson, reference), start=1):
            assert np.abs(new - ref).max() <= 1e-14 * (h_d * t_c) ** n, f"P_{n}"
        series = burum_terms(dyson, t_c)
        expected = reference_burum_terms(reference, t_c)
        assert len(series.terms) == len(expected) == n_dyson
        for n, (new, ref) in enumerate(zip(series.terms, expected)):
            assert np.abs(new - ref).max() <= 1e-14 * h_d, f"H^({n})"
            assert subnormal_count(new) == 0, f"H^({n})"
        def count(terms):
            return sum(frobenius_magnitude(t) / h_d > NEGLIGIBLE_MAGNITUDE for t in terms)
        assert count(series.terms) == count(expected)

    def test_flush_zeroes_parts_below_floor(self):
        # order 0 is ~1e-140, order 1 ~1e-280 (below 2**-500), the rest underflow
        segments = [
            TogglingSegment(random_hermitian(51, 4, scale=1e-140), 1.0),
            TogglingSegment(random_hermitian(52, 4, scale=1e-140), 2.0),
        ]
        dyson = dyson_terms(segments, 4)
        series = burum_terms(dyson, 3.0)
        expected = reference_burum_terms(dyson, 3.0)
        assert np.abs(series.terms[0] - expected[0]).max() <= 1e-14 * np.abs(expected[0]).max()
        assert expected[1].any()
        assert not any(term.any() for term in series.terms[1:])


class TestRealRecursions:
    def test_real_segments_give_real_dyson_terms_and_complex_terms(self):
        system = SpinSystem.create(sample_couplings(2026, 4))
        segs = toggling_segments(system, builtin("MREV8"), 3e-6)
        assert all(s.hamiltonian.dtype == np.float64 for s in segs)
        dyson = dyson_terms(segs, 4)
        assert all(p.dtype == np.float64 for p in dyson)
        series = burum_terms(dyson, builtin("MREV8").cycle_time(3e-6))
        assert all(t.dtype == np.complex128 for t in series.terms)
        # H^(n) = (-i)^n w_{n+1} / t_c: even orders real, odd orders imaginary
        for n, term in enumerate(series.terms):
            assert not (term.imag if n % 2 == 0 else term.real).any(), n

    def test_flush_on_real_blocks(self):
        segments = [
            TogglingSegment(random_hermitian(51, 4, scale=1e-140).real, 1.0),
            TogglingSegment(random_hermitian(52, 4, scale=1e-140).real, 2.0),
        ]
        dyson = dyson_terms(segments, 4)
        assert dyson[0].dtype == np.float64
        series = burum_terms(dyson, 3.0)
        expected = reference_burum_terms(dyson, 3.0)
        assert np.abs(series.terms[0] - expected[0]).max() <= 1e-14 * np.abs(expected[0]).max()
        assert expected[1].any()
        assert not any(term.any() for term in series.terms[1:])


class TestSymmetryZeros:
    """Terms that vanish by symmetry stay below NEGLIGIBLE_MAGNITUDE."""

    def test_whh_odd_orders_figA4_panel_c(self):
        # figA4 panel (c): uniform 5 kHz couplings at |H| tau = 0.466, orders 0..70
        tau = _tau_at(_UNIFORM_4, 0.466)
        series = magnus_series(_UNIFORM_4, builtin("WHH"), tau, 70)
        magnitudes = term_magnitudes(series, dipolar_hamiltonian(_UNIFORM_4))
        assert magnitudes[1::2].max() < NEGLIGIBLE_MAGNITUDE

    def test_cory48_order_zero_at_8_spins(self):
        # the couplings of `spinweave aht terms --spins 8`
        system = SpinSystem.create(sample_couplings(2026, 8, 420.0 / 3.0))
        series = magnus_series(system, builtin("CORY48"), 4e-6, 0)
        assert term_magnitudes(series, dipolar_hamiltonian(system))[0] < NEGLIGIBLE_MAGNITUDE


class TestSliceConvergence:
    """Finite-width pulses are sliced; the order-2 term converges as 1/k^2 in the slice count k."""

    @pytest.mark.parametrize("name", ["BR24", "YXX24"])
    def test_order_two_converges_as_inverse_square(self, name, monkeypatch):
        system = SpinSystem.create(sample_couplings(2026, 4))
        terms = {}
        for k in (8, 32, 128):
            monkeypatch.setattr(aht, "PULSE_SLICES", k)
            terms[k] = magnus_series(system, builtin(name), 4e-6, 2, pulse_width=2e-6).terms[2]
        size = frobenius_magnitude(terms[128])
        error = {k: frobenius_magnitude(terms[k] - terms[128]) / size for k in (8, 32)}
        # an error C / k^2, measured against k = 128, gives the ratio
        # (1/8^2 - 1/128^2) / (1/32^2 - 1/128^2) = 17; it reads 17.12-17.13
        assert error[8] / error[32] == pytest.approx(17.0, rel=0.02)
        assert error[32] < 1e-3


class TestOrderTwoPrediction:
    """The finite-width Magnus sum through order 2 predicts the exact 1-F of the cycle."""

    @pytest.mark.parametrize("name", ["BR24", "CORY48", "YXX24"])
    @pytest.mark.parametrize("seed", [2026, 2027])
    def test_tracks_the_exact_infidelity(self, name, seed):
        # for a traceless H, 1 - |Tr exp(-i tau H)| / d is tau^2 |H|_F^2 / (2d)
        # to leading order.  Measured prediction / exact ratios are 1.00-1.53
        # at t_w = 1 and 2 us (and 1.97 at 0.5 us, where CORY48 reads 6.3e-13
        # on seed 2026), so the bound stated here is [0.9, 1.6]
        system, seq, tau = SpinSystem.create(sample_couplings(seed, 4)), builtin(name), 4e-6
        for width in (1e-6, 2e-6):
            h = magnus_series(system, seq, tau, 2, pulse_width=width).partial_sum(2)
            d = len(h)
            predicted = tau**2 * np.linalg.norm(h - np.trace(h) / d * np.eye(d)) ** 2 / (2 * d)
            exact = 1.0 - fidelity(cycle_unitary(system, seq, ErrorModel(pulse_width=width), tau), m=seq.cycle_windows)
            assert 0.9 <= predicted / exact <= 1.6, (width, predicted, exact)


class TestTermMagnitudes:
    def test_zero_series(self):
        segs = [TogglingSegment(np.zeros((2, 2), dtype=complex) + 0j, 1.0)]
        series = burum_terms(dyson_terms(segs, 3), 1.0)
        mags = term_magnitudes(series, np.eye(2))
        assert np.abs(mags).max() == 0.0

    def test_rejects_zero_normalization(self):
        segs = [TogglingSegment(np.eye(2, dtype=complex), 1.0)]
        series = burum_terms(dyson_terms(segs, 1), 1.0)
        with pytest.raises(ValueError, match="zero"):
            term_magnitudes(series, np.zeros((2, 2)))

    def test_spectroscopic_scaling_factors(self):
        # chemical-shift scaling factors of the spectroscopic cycles,
        # recovered from zeroth-order magnitudes
        system = SpinSystem.create(np.zeros((4, 4)), global_offset_hz=30.0)
        h_off = offset_hamiltonian(system)
        expected = {
            "WHH": 1 / np.sqrt(3),
            "MREV8": np.sqrt(2) / 3,
            "MREV16": 1 / 3,
            "BR24": 2 / (3 * np.sqrt(3)),
        }
        for name, factor in expected.items():
            series = magnus_series(system, builtin(name), 4e-6, 0)
            mags = term_magnitudes(series, h_off)
            assert mags[0] == pytest.approx(factor, abs=1e-9), name


class TestConvergenceCheck:
    def test_zero_hamiltonian(self):
        report = convergence_check([TogglingSegment(np.zeros((2, 2), dtype=complex), 1.0)])
        assert report.value == 0.0
        assert report.converges_guaranteed

    def test_whh_at_spec_operating_point(self):
        # spectral |H| tau = 0.466 gives value 6 * 0.466 = 2.80 < pi
        system = SpinSystem.create(sample_couplings(41, 4, 5000.0 / 3.0))
        tau = 0.466 / np.abs(np.linalg.eigvalsh(dipolar_hamiltonian(system))).max()
        report = convergence_check(toggling_segments(system, builtin("WHH"), tau))
        assert report.value == pytest.approx(6 * 0.466, rel=1e-9)
        assert report.converges_guaranteed

    def test_linear_in_tau(self):
        system = SpinSystem.create(sample_couplings(43, 3, 1000.0))
        v1 = convergence_check(toggling_segments(system, builtin("WHH"), 2e-6)).value
        v2 = convergence_check(toggling_segments(system, builtin("WHH"), 4e-6)).value
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
