"""Average Hamiltonian analysis of cyclic pulse sequences.

Builds the piecewise-constant toggling-frame Hamiltonian of a cycle,
evaluates the order-0/1 averages in closed form, and generates arbitrary
higher orders from nested time-ordered integrals combined through the
exponential-matching recursion (Dyson terms in, Magnus terms out).

For delta pulses the toggling Hamiltonian is exactly piecewise constant, so
every integral is evaluated in closed form; there is no quadrature error
even at high order.  Finite-width pulses are sliced into
:data:`PULSE_SLICES` short constant sub-segments, a documented
approximation.  Every segment is read off the image ``n`` of S_z under
the pulses before it (with cardinal delta pulses, the frame matrix of
Choi et al., PRX 10, 031002 (2020)), with no dense rotation: its pairs
take the one pair-operator rule :func:`spinweave.spins._pair_factors`
of ``n``, and it has the dtype of its elements.  Sums accumulate
in plain floating point; their roundoff shows in each term's recorded
hermiticity residual, and Dyson or Magnus terms that overflow raise
:class:`~spinweave.operators.NumericalDiagnosticError`.

Both recursions run in the dtype of the segments, with the powers of -i
taken out: real, in ``float64``, wherever the segments are real, as they
are for every offset-free cardinal cycle, and in ``complex128`` otherwise.
Only the Magnus terms themselves are formed complex.  Both run at GEMM
granularity: the operators of all orders are kept in a few contiguous
buffers, a row of blocks side by side and packed columns of blocks
stacked, so each order-n sum over products of lower orders is one matrix
product of two slices instead of one small product per term
(:func:`dyson_terms`, :func:`burum_terms`).  The Burum recursion sets
parts of its working values below ``2**-500`` to zero, which keeps its
products out of the slow subnormal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    HermitianPropagator,
    NumericalDiagnosticError,
    Operator,
    commutator,
    frobenius_magnitude,
    hermiticity_defect,
)
from .sequences import PulseSequence, _toggling_frames, schedule, validate_cyclic
from .spins import SpinSystem, _bit_table, _flip_sum, _pair_factors, _pair_stack

__all__ = [
    "TogglingSegment",
    "MagnusSeries",
    "ConvergenceReport",
    "toggling_segments",
    "average_h",
    "dyson_terms",
    "burum_terms",
    "magnus_series",
    "term_magnitudes",
    "convergence_check",
    "NEGLIGIBLE_MAGNITUDE",
    "PULSE_SLICES",
]

# Normalized magnitudes below this are reported as numerically negligible.
NEGLIGIBLE_MAGNITUDE = 1e-15

# Highest effective-Hamiltonian order of any cycle (Dyson terms through 73).
_HARD_ORDER_CAP = 72

# Constant sub-segments per finite-width pulse in the toggling frame.
PULSE_SLICES = 32

# Parts of Burum working values below this are set to zero (see burum_terms).
_FLUSH_FLOOR = 2.0**-500


@dataclass(frozen=True)
class TogglingSegment:
    """A constant piece of the toggling-frame Hamiltonian."""

    hamiltonian: np.ndarray  # rad/s
    duration: float  # seconds

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(f"segment duration must be positive and finite, got {self.duration!r}")


@dataclass(frozen=True)
class MagnusSeries:
    """Effective-Hamiltonian terms of one cycle.

    ``terms[n]`` is the order-n term (rad/s), Hermitized; the anti-Hermitian
    residual removed from each raw term is recorded relative to the term's
    own Frobenius norm.
    """

    terms: tuple[np.ndarray, ...]
    cycle_time: float
    hermiticity_residuals: tuple[float, ...]

    @property
    def max_order(self) -> int:
        return len(self.terms) - 1

    def partial_sum(self, order: int) -> Operator:
        if not (0 <= order <= self.max_order and int(order) == order):
            raise ValueError(
                f"order {order} outside computed range 0..{self.max_order}"
            )
        return sum(self.terms[: int(order) + 1])


@dataclass(frozen=True)
class ConvergenceReport:
    """Sufficient-criterion check: sum_k |H_k| dt_k compared against pi."""

    value: float
    converges_guaranteed: bool


def toggling_segments(
    system: SpinSystem,
    seq: PulseSequence,
    tau: float,
    pulse_width: float = 0.0,
) -> list[TogglingSegment]:
    """Piecewise-constant toggling-frame Hamiltonian over one cycle.

    Each free step is one segment, and each finite-width pulse
    :data:`PULSE_SLICES`, sampled at slice midpoints.  A segment is
    ``u^dag H_int u``, ``u`` the pulses before it, which turn S_z to a unit
    vector ``n`` (:func:`spinweave.sequences._toggling_frames`); as
    ``S^i . S^j`` is invariant, that is :func:`_toggled_hamiltonian` of
    ``n``, for any phase and slice.  Segments with one ``n`` share one
    read-only matrix.
    """
    validate_cyclic(seq)
    toggled: dict[tuple, np.ndarray] = {}
    segments = []
    for n, seconds in _toggling_frames(schedule(seq, tau, pulse_width), pulse_width, PULSE_SLICES):
        key = tuple(n.tolist())
        if key not in toggled:
            toggled[key] = _toggled_hamiltonian(system, n)
            toggled[key].flags.writeable = False
        segments.append(TogglingSegment(toggled[key], seconds))
    if not segments:
        raise ValueError("sequence produced no toggling segments")
    return segments


def _toggled_hamiltonian(system: SpinSystem, n: np.ndarray) -> np.ndarray:
    """``H_D(n) + sum_i 2 pi a_i n . S^i``, H_int with S_z turned to the unit vector ``n``, in the dtype of its elements.

    The pairs take :func:`spinweave.spins._pair_factors` of ``n``.  With
    ``nu = n_x + i n_y``, ``n . S = n_z S_z + (conj(nu) S_+ + nu S_-) / 2``,
    so the one-spin flips of spin j take, per state,
    ``c_j = 2 pi a_j + 3 n_z sum_i d_ij m_i`` (d in rad/s) times ``nu / 2``
    down and ``conj(nu) / 2`` up, real when ``nu`` is.
    """
    n_z, nu = n[2], complex(n[0], n[1])
    k, offsets = system.n_spins, system.total_offsets_hz
    h = _pair_stack(system.couplings_hz[None], _pair_factors(n), n_z * offsets[None] if n_z else None)[0]
    half = np.pi * (offsets + 3.0 * n_z * ((0.5 - _bit_table(k)) @ system.couplings_hz))  # c_j / 2
    if nu and half.any():
        nu = nu.real if nu.imag == 0 else nu
        h = h + _flip_sum(k, half * nu, half * nu.conjugate())
    return h


def average_h(segments: list[TogglingSegment], order: int) -> Operator:
    """Closed-form order-0 or order-1 average of piecewise-constant segments.

    Order 0 is the duration-weighted mean; order 1 is
    ``(-i / 2 t_c) sum_{k>l} [H_k, H_l] dt_k dt_l`` (same-segment
    contributions vanish).  Both are exact for piecewise-constant input.
    """
    if order not in (0, 1):
        raise ValueError("closed forms available for orders 0 and 1 only")
    if not segments:
        raise ValueError("need at least one segment")
    t_c = sum(s.duration for s in segments)
    if order == 0:
        acc = np.zeros_like(segments[0].hamiltonian)
        for s in segments:
            acc = acc + s.hamiltonian * s.duration
        return acc / t_c
    acc = np.zeros_like(segments[0].hamiltonian)
    earlier = np.zeros_like(acc)  # sum_{l<k} H_l dt_l
    for s in segments:
        acc = acc + commutator(s.hamiltonian, earlier) * s.duration
        earlier = earlier + s.hamiltonian * s.duration
    return acc * (-1j / (2.0 * t_c))


def dyson_terms(segments: list[TogglingSegment], n_max: int) -> list[Operator]:
    """Nested time-ordered integrals P_1..P_n of the segment Hamiltonian.

    ``P_n = int_0^{t_c} dt_1 int_0^{t_1} dt_2 ... H(t_1) H(t_2) ... H(t_n)``
    evaluated exactly: within a constant segment the running terms satisfy a
    triangular ODE system whose solution is the Cauchy product with the
    segment's exponential series, continued across segment boundaries.

    With ``p_j = (H dt)^j / j!`` the segment's series, a segment maps
    ``P_n -> P_n + p_n + sum_{j=1}^{n-1} p_j P_{n-j}``; the order-n part of
    the propagator is ``(-i)^n P_n``, and leaving that factor out keeps a
    real Hamiltonian's arithmetic real.  The terms have the dtype of the
    segments (at least ``float64``): real for real segments, such as those
    of an offset-free cardinal cycle.  The powers are kept side by side in
    reverse order, ``[p_N ... p_1]`` (shape ``(dim, N dim)``), and
    ``P_1..P_N`` stacked in one ``(N dim, dim)`` column, so the sum is one
    GEMM of the slices ``[p_{n-1} ... p_1]`` and ``[P_1; ...; P_{n-1}]``.
    Orders are updated from N down, so each reads the lower orders of the
    previous segment; no product with the identity is formed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > _HARD_ORDER_CAP + 1:
        raise ValueError(f"n_max capped at {_HARD_ORDER_CAP + 1}")
    if not segments:
        raise ValueError("need at least one segment")
    dim = segments[0].hamiltonian.shape[0]
    dtype = np.result_type(np.float64, *(seg.hamiltonian for seg in segments))
    width = n_max * dim
    powers = np.empty((dim, width), dtype=dtype)  # p_j at block n_max - j
    d = np.zeros((width, dim), dtype=dtype)  # P_n at block n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for seg in segments:
            gen = seg.hamiltonian * seg.duration
            a = gen
            powers[:, width - dim :] = a
            for j in range(2, n_max + 1):
                a = (a @ gen) / j
                powers[:, (n_max - j) * dim : (n_max - j + 1) * dim] = a
            for n in range(n_max, 0, -1):
                block = d[(n - 1) * dim : n * dim]
                block += powers[:, (n_max - n) * dim : (n_max - n + 1) * dim]
                if n > 1:
                    block += powers[:, (n_max - n + 1) * dim :] @ d[: (n - 1) * dim]
    if not np.isfinite(d).all():
        raise NumericalDiagnosticError(f"Dyson terms through order {n_max} overflow")
    return [d[(n - 1) * dim : n * dim] for n in range(1, n_max + 1)]


def _flush_tiny(block: np.ndarray) -> np.ndarray:
    """Zero, in place, every element of a real block, or real or imaginary part of a complex one, below :data:`_FLUSH_FLOOR`."""
    parts = block.view(np.float64)
    parts[np.abs(parts) < _FLUSH_FLOOR] = 0.0
    return block


def burum_terms(dyson: list[Operator], cycle_time: float) -> MagnusSeries:
    """Magnus terms of the effective Hamiltonian from Dyson integrals.

    Matches ``exp(sum_n W_n)`` against the propagator's expansion, whose
    order-n part is ``(-i)^n P_n``, order by order, where ``W_n`` collects n
    powers of the Hamiltonian; the order-n effective term is
    ``(i / t_c) W_{n+1}``.  The order-0/1 results coincide with the
    :func:`average_h` closed forms, which the test suite enforces.

    The recursion runs on ``w_n = i^n W_n``, which takes the powers of -i
    out as :func:`dyson_terms` does, so it is real, and runs in
    ``float64``, when the Dyson terms are real; its working buffers have
    the dtype of the Dyson terms.  Writing ``P(k, n)`` for the order-n
    part of ``w^k``, order n is ``w_n = P_n - sum_{k=2}^{n} P(k, n) / k!``
    with ``P(k, n) = sum_m w_m P(k-1, n-m)``.  Each ``P(k, n)`` is one GEMM:
    ``w_1..w_N`` are kept side by side in reverse order (shape
    ``(dim, N dim)``), so ``[w_{n-k+1} ... w_1]`` is one slice, and each
    power k has a packed column ``((N+1-k) dim, dim)`` holding only its
    orders ``k..N``, so ``[P(k-1, k-1); ...; P(k-1, n-1)]`` is one slice.
    No full ``(N+1) dim`` square table is built.  Only at the end is each
    term formed, ``H^(n) = (i / t_c) (-i)^{n+1} w_{n+1} = (-i)^n w_{n+1} / t_c``,
    complex and Hermitized.

    Every part below ``2**-500`` (real or imaginary) is set to zero in each
    new ``P(k, n)`` block and in each ``w_n`` before it is stored.  These
    are dimensionless orders of ``H t``, so a flushed entry lies more than
    1e135 below :data:`NEGLIGIBLE_MAGNITUDE`.  Without the flush, powers of
    a roundoff-level ``w_1`` (the order-0 average of a decoupling cycle)
    underflow into subnormals, which make each GEMM several times slower;
    with it, no product of two stored entries is subnormal
    (``2**-1000 > 2**-1022``).
    """
    if cycle_time <= 0:
        raise ValueError("cycle_time must be positive")
    n_terms = len(dyson)
    if n_terms < 1:
        raise ValueError("need at least one Dyson term")
    dim = dyson[0].shape[0]
    dtype = np.result_type(np.float64, *dyson)
    width = n_terms * dim
    omega = np.empty((dim, width), dtype=dtype)  # w_m at block n_terms - m
    # columns[k - 1] holds P(k, j) for j = k..n_terms at block j - k
    columns = [
        np.empty(((n_terms + 1 - k) * dim, dim), dtype=dtype)
        for k in range(1, n_terms + 1)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_terms + 1):
            correction = np.zeros((dim, dim), dtype=dtype)
            for k in range(2, n + 1):
                block = columns[k - 1][(n - k) * dim : (n - k + 1) * dim]
                np.matmul(
                    omega[:, (n_terms - n + k - 1) * dim :],
                    columns[k - 2][: (n - k + 1) * dim],
                    out=block,
                )
                correction += _flush_tiny(block) / float(math.factorial(k))
            w_n = _flush_tiny(dyson[n - 1] - correction)
            omega[:, (n_terms - n) * dim : (n_terms - n + 1) * dim] = w_n
            columns[0][(n - 1) * dim : n * dim] = w_n
    if not np.isfinite(columns[0]).all():
        raise NumericalDiagnosticError(f"Magnus terms through order {n_terms - 1} overflow")
    terms = []
    residuals = []
    for n in range(n_terms):
        t = ((-1j) ** n / cycle_time) * columns[0][n * dim : (n + 1) * dim]
        residuals.append(hermiticity_defect(t))
        herm = (t + t.conj().T) / 2.0
        herm.flags.writeable = False
        terms.append(herm)
    return MagnusSeries(
        terms=tuple(terms),
        cycle_time=cycle_time,
        hermiticity_residuals=tuple(residuals),
    )


def magnus_series(
    system: SpinSystem,
    seq: PulseSequence,
    tau: float,
    orders: int,
    pulse_width: float = 0.0,
) -> MagnusSeries:
    """Effective-Hamiltonian terms H(0)..H(orders) for one cycle.

    ``orders`` is a whole number in 0..72 for every cycle.  Whether high
    orders are meaningful is for the caller to judge:
    :func:`convergence_check` gives the sufficient convergence criterion,
    and the series' hermiticity residuals show the roundoff of each term.
    """
    if orders > _HARD_ORDER_CAP:
        raise ValueError(f"order {orders} exceeds the cap {_HARD_ORDER_CAP}")
    if not (orders >= 0 and int(orders) == orders):
        raise ValueError(f"orders must be >= 0 and whole, got {orders}")
    segments = toggling_segments(system, seq, tau, pulse_width)
    t_c = seq.cycle_time(tau)
    return burum_terms(dyson_terms(segments, int(orders) + 1), t_c)


def term_magnitudes(series: MagnusSeries, h_dip: Operator) -> np.ndarray:
    """Per-term Frobenius magnitudes normalized by the dipolar Hamiltonian's.

    Values below :data:`NEGLIGIBLE_MAGNITUDE` should be read as numerically
    zero.
    """
    scale = frobenius_magnitude(h_dip)
    if scale == 0.0:
        raise ValueError("dipolar normalization operator is zero")
    return np.array([frobenius_magnitude(t) / scale for t in series.terms])


def convergence_check(segments: list[TogglingSegment]) -> ConvergenceReport:
    """Sufficient convergence criterion: sum_k |H_k| dt_k < pi (spectral norm)."""
    value = float(
        sum(HermitianPropagator(s.hamiltonian).spectral_norm * s.duration for s in segments)
    )
    return ConvergenceReport(value=value, converges_guaranteed=value < np.pi)
