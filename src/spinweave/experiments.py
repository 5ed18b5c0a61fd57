"""Simulated analogues of the decoupling and coherence experiments.

Autocorrelation experiments read the overlap of a collective deviation
operator after N decoupling cycles with the initial one, normalized at t = 0
as the hardware reference experiment is; every power U^N of the cycle comes
from one eigendecomposition U = e^{i mu} V e^{i c} V^dag, which also gives the
protected MQC window; the global phase e^{i mu} cancels in both.  Decay curves are fit with a stretched exponential
(time-suspension sequences) or an oscillating one (spectroscopic sequences).

The multiple-quantum-coherence experiment grows coherences under the
double-quantum Hamiltonian, phase-tags them with a collective z rotation,
optionally lets them evolve during a window (free or protected by a
decoupling sequence) and reverses the growth.  The tagged signal is a
Fourier series in the tag angle whose coefficients, the spectrum, are
computed directly as sums over the elements of each coherence order.

Only the two fits, :func:`fit_decay` and :func:`cluster_size`, use scipy.
They import its least-squares solver when they run, so a process that
never fits (a sweep, a cycle, a Magnus series, an MQC spectrum) never
loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import ErrorModel, IDEAL, cycle_unitary
from .operators import HermitianPropagator, Operator, _unitary_eigenphases, as_operator, dagger
from .sequences import PulseSequence, schedule
from .spins import (
    SpinSystem,
    collective_operator,
    dq_hamiltonian,
    internal_hamiltonian,
    kron_power,
    magnetization,
    magnetization_sectors,
    parity_sectors,
)

__all__ = [
    "DecayCurve",
    "FitResult",
    "CoherenceSpectrum",
    "FreeWindow",
    "ProtectedWindow",
    "MqcResult",
    "autocorrelation",
    "autocorrelations",
    "c_avg",
    "fit_decay",
    "coherence_intensities",
    "mqc_experiment",
    "mqc_phi_count",
    "cluster_size",
    "DEFAULT_STRETCH_BOUNDS",
    "MIN_FIT_POINTS",
]

DEFAULT_STRETCH_BOUNDS = {"stretched": (0.5, 2.5), "oscillating": (0.0, 3.0)}

# Fewest distinct sample times fit_decay accepts.
MIN_FIT_POINTS = 6
# Most residual evaluations of each fit_decay start.
FIT_MAX_NFEV = 500


@dataclass(frozen=True)
class DecayCurve:
    """A normalized signal sampled at block boundaries N * t_c; times and values must be finite."""

    times: np.ndarray
    values: np.ndarray
    axis: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def _block_counts(blocks) -> list[int]:
    """Sorted distinct block counts, at least one, each an ``int`` or ``np.integer`` (not bool) in 0..2**53."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("at least one block count is required")
    for b in blocks:
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or not 0 <= b <= 2**53:
            raise ValueError(f"block counts must be integers in 0..2**53, got {b!r}")
    return sorted(set(map(int, blocks)))


def autocorrelations(
    system: SpinSystem,
    seq: PulseSequence,
    error: ErrorModel = IDEAL,
    tau: float = 4e-6,
    axes: str = "xyz",
    blocks=(0, 1, 2, 4, 8, 16, 32, 64),
) -> dict[str, DecayCurve]:
    """Autocorrelations ``C_aa(N t_c)`` along each of ``axes``, as ``{axis: DecayCurve}``.

    ``C(N) = Tr(U^N S U^{-N} S) / Tr(S S)``.  The cycle is decomposed once for all axes,
    ``U = e^{i mu} V diag(e^{i c}) V^dag`` (:func:`_unitary_eigenphases`); ``mu`` cancels,
    and with ``w = |V^dag S V|^2`` all blocks take one product: ``C(N) = sum_ab w_ab
    e^{i N (c_a - c_b)} / sum w``, so C(0) = 1 exactly and |C| <= 1 to roundoff.  Blocks, at least
    one, are sorted and deduplicated, each an integer in 0..2**53.  Each curve equals :func:`autocorrelation`.
    """
    counts = _block_counts(blocks)
    c, _, v = _unitary_eigenphases(cycle_unitary(system, seq, error, tau), basis=True)
    skip = 0 if counts[:1] == [0] else 1  # row 0 of turns is N = 0, whose value normalizes each curve
    turns = np.exp(1j * np.multiply.outer(np.array([0] * skip + counts, dtype=float), c))
    times = np.array([n * seq.cycle_time(tau) for n in counts])
    meta = {"sequence": seq.name, "tau_s": tau, "n_spins": system.n_spins, "pulse_width_s": error.pulse_width}
    curves = {}
    for axis in axes:
        w = np.abs(dagger(v) @ collective_operator(system.n_spins, axis) @ v) ** 2
        corr = np.einsum("ka,ka->k", turns, turns.conj() @ w).real
        curves[axis] = DecayCurve(times, corr[skip:] / corr[0], axis, dict(meta))
    return curves


def autocorrelation(
    system: SpinSystem,
    seq: PulseSequence,
    error: ErrorModel = IDEAL,
    tau: float = 4e-6,
    axis: str = "x",
    blocks=(0, 1, 2, 4, 8, 16, 32, 64),
) -> DecayCurve:
    """``C_aa(N t_c)`` of one axis: the one-axis call of :func:`autocorrelations`."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return autocorrelations(system, seq, error, tau, axis, blocks)[axis]


def c_avg(cx: DecayCurve, cy: DecayCurve, cz: DecayCurve) -> DecayCurve:
    """Pointwise geometric mean of the three autocorrelation curves.

    Oscillating spectroscopic curves can go negative; the mean is taken on
    magnitudes and the majority sign is reattached, with points where the
    three signs disagree flagged in ``meta["sign_disagreements"]``.
    """
    for other in (cy, cz):
        if not np.array_equal(cx.times, other.times):
            raise ValueError("autocorrelation curves must share one time grid")
    stacked = np.vstack([cx.values, cy.values, cz.values])
    magnitude = np.cbrt(np.abs(stacked.prod(axis=0)))
    signs = np.sign(stacked)
    majority = np.where(signs.sum(axis=0) < 0, -1.0, 1.0)
    disagree = np.nonzero((signs.max(axis=0) - signs.min(axis=0)) > 1.5)[0]
    meta = dict(cx.meta)
    meta["sign_disagreements"] = disagree.tolist()
    return DecayCurve(times=cx.times, values=majority * magnitude, axis="avg", meta=meta)


@dataclass(frozen=True)
class FitResult:
    """Best-fit decay parameters.

    The decay model is ``c0 * exp(-t**g / t2_eff)`` optionally multiplied by
    ``cos(2 pi f t)`` and offset by ``c1``.  ``time_to_1e`` is the time at
    which the envelope falls to 1/e (``t2_eff ** (1/g)``), which is the
    scale to use when comparing fits with different stretch exponents.
    """

    model: str
    c0: float
    c1: float
    t2_eff: float
    stretch: float
    freq_hz: float
    residual: float
    converged: bool
    at_bound: bool

    @property
    def time_to_1e(self) -> float:
        return self.t2_eff ** (1.0 / self.stretch) if self.stretch > 0 else np.inf


def _fit_model(model: str, t: np.ndarray, params: np.ndarray) -> np.ndarray:
    if model == "stretched":
        c0, log_t1e, g = params
        return c0 * np.exp(-((t / np.exp(log_t1e)) ** g))
    c0, log_t1e, g, f, c1 = params
    return c0 * np.cos(2 * np.pi * f * t) * np.exp(-((t / np.exp(log_t1e)) ** g)) + c1


def _dominant_frequency(t: np.ndarray, v: np.ndarray) -> float:
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6, atol=0.0):
        return 0.25 / t.max()
    spectrum = np.abs(np.fft.rfft(v - v.mean()))
    freqs = np.fft.rfftfreq(v.size, d=dt[0])
    return float(freqs[1:][np.argmax(spectrum[1:])])


def _best_fit(residuals, starts, lower: np.ndarray, upper: np.ndarray, margin: float, max_nfev: int):
    """The lowest-cost bounded trust-region ``least_squares`` result over ``starts``.

    Each start is clipped ``margin`` inside the bounds.  A start whose solve
    raises ``ValueError`` (a singular step, a non-finite residual) is
    skipped; if every start does, ``RuntimeError``.
    """
    from scipy.optimize import least_squares  # loaded at the first fit, see the module docstring

    best = None
    for x0 in starts:
        x0 = np.clip(x0, lower + margin, upper - margin)
        try:
            res = least_squares(residuals, x0, bounds=(lower, upper), max_nfev=max_nfev, method="trf")
        except ValueError:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise RuntimeError("least-squares fit failed from every starting point")
    return best


def fit_decay(curve: DecayCurve, model: str = "stretched") -> FitResult:
    """Nonlinear least-squares fit of a decay curve.

    The stretch exponent is bounded by ``DEFAULT_STRETCH_BOUNDS[model]``.
    Runs a bounded trust-region least-squares solve from 8 starting points
    (decay-time grid crossed with frequency candidates for the oscillating
    model) and keeps the best.  Failure to converge within
    ``FIT_MAX_NFEV`` evaluations per start returns the best-so-far
    parameters with ``converged=False``.  A curve needs ``MIN_FIT_POINTS``
    distinct times, else ``ValueError``: repeated times add no time span.
    """
    if model not in DEFAULT_STRETCH_BOUNDS:
        raise ValueError(f"model must be 'stretched' or 'oscillating', got {model!r}")
    t = curve.times
    v = curve.values
    distinct = np.unique(t)
    if distinct.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points at distinct times to fit a decay model, got {distinct.size}")
    if np.any(t < 0):
        raise ValueError("decay times must be nonnegative")
    g_lo, g_hi = DEFAULT_STRETCH_BOUNDS[model]
    t_max = float(t.max())
    scale = max(float(np.abs(v).max()), 1e-12)
    log_lo, log_hi = np.log(t_max * 1e-4), np.log(t_max * 1e4)
    if model == "stretched":
        lower = np.array([0.0, log_lo, g_lo])
        upper = np.array([10.0 * scale, log_hi, g_hi])
    else:
        f_max = 0.5 / max(np.min(np.diff(distinct)), 1e-30)
        lower = np.array([0.0, log_lo, g_lo, 0.0, -2.0 * scale])
        upper = np.array([10.0 * scale, log_hi, g_hi, f_max, 2.0 * scale])
    g_init = float(np.clip(1.0, g_lo + 1e-6, g_hi - 1e-6))
    t1e_grid = np.array([0.05, 0.2, 0.7, 2.0, 6.0, 20.0, 100.0, 1000.0]) * t_max
    starts = []
    if model == "stretched":
        for t1e in t1e_grid:
            starts.append(np.array([scale, np.log(t1e), g_init]))
    else:
        f0 = _dominant_frequency(t, v)
        f_candidates = [f0, 0.5 * f0, 2.0 * f0, 0.1 / t_max]
        for t1e in t1e_grid[1:5]:
            for f in f_candidates[:2]:
                starts.append(np.array([scale, np.log(t1e), g_init, f, 0.0]))
        for f in f_candidates[2:]:
            starts.append(np.array([scale, np.log(t1e_grid[2]), g_init, f, 0.0]))

    best = _best_fit(lambda p: _fit_model(model, t, p) - v, starts, lower, upper, 1e-12, FIT_MAX_NFEV)
    p = best.x
    # flagged when the decay time pins to the search bounds or exceeds the
    # observation window so far that it is not resolved by the data
    at_bound = bool(
        p[1] > log_hi - 1e-6 or p[1] < log_lo + 1e-6 or np.exp(p[1]) >= 100.0 * t_max
    )
    if model == "stretched":
        c0, log_t1e, g = p
        f_hz, c1 = 0.0, 0.0
    else:
        c0, log_t1e, g, f_hz, c1 = p
    t1e = float(np.exp(log_t1e))
    return FitResult(
        model=model,
        c0=float(c0),
        c1=float(c1),
        t2_eff=float(t1e**g),
        stretch=float(g),
        freq_hz=float(f_hz),
        residual=float(np.sqrt(2.0 * best.cost)),
        converged=bool(best.status > 0),
        at_bound=at_bound,
    )


@dataclass(frozen=True)
class CoherenceSpectrum:
    """Coherence-order intensities ``I_n = Tr(rho_n^dag rho_n)``."""

    orders: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.orders, dtype=int)
        i = np.asarray(self.intensities, dtype=float)
        if o.shape != i.shape or o.ndim != 1:
            raise ValueError("orders and intensities must be 1-D arrays of equal length")
        object.__setattr__(self, "orders", o)
        object.__setattr__(self, "intensities", i)

    @property
    def total(self) -> float:
        return float(self.intensities.sum())

    def intensity(self, n: int) -> float:
        idx = np.nonzero(self.orders == n)[0]
        if idx.size == 0:
            raise ValueError(f"order {n} outside spectrum")
        return float(self.intensities[idx[0]])


_AXIS_EIGENBASIS = {
    "z": np.eye(2, dtype=np.complex128),
    "x": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "y": np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2.0),
}


def _order_sums(weights: np.ndarray, n_spins: int) -> np.ndarray:
    """Sums of ``weights[a, b]`` over each coherence order ``m_a - m_b = -n_spins .. n_spins``."""
    m = magnetization(n_spins)
    bins = ((m[:, None] - m[None, :]).astype(np.intp) + n_spins).ravel()
    sums = np.bincount(bins, weights=weights.real.ravel(), minlength=2 * n_spins + 1)
    if np.iscomplexobj(weights):
        sums = sums + 1j * np.bincount(bins, weights=weights.imag.ravel(), minlength=len(sums))
    return sums


def coherence_intensities(rho: Operator, axis: str = "z") -> CoherenceSpectrum:
    """Decompose a density operator by coherence order along ``axis``.

    Block ``n`` connects eigenstates of the collective spin along ``axis``
    whose magnetic quantum numbers differ by ``n``; its intensity is the
    squared Frobenius norm of the block.  The intensities sum to
    ``Tr(rho^dag rho)``.
    """
    rho = as_operator(rho)
    n_spins = int(round(np.log2(rho.shape[0])))
    if axis not in _AXIS_EIGENBASIS:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if axis != "z":
        basis = kron_power(_AXIS_EIGENBASIS[axis], n_spins)
        rho = basis.conj().T @ rho @ basis
    intensities = _order_sums(np.abs(rho) ** 2, n_spins)
    orders = np.arange(-n_spins, n_spins + 1)
    return CoherenceSpectrum(orders=orders, intensities=intensities)


def _check_duration(duration: float) -> None:
    if not 0.0 <= duration < np.inf:
        raise ValueError(f"window duration must be finite and nonnegative, got {duration!r}")


@dataclass(frozen=True)
class FreeWindow:
    """Window of free evolution under the internal Hamiltonian.

    Propagated by :class:`spinweave.operators.HermitianPropagator` over
    magnetization sectors, the factorization that drives the free steps of
    a cycle.  ``duration`` must be finite and nonnegative.
    """

    duration: float

    def __post_init__(self):
        _check_duration(self.duration)


@dataclass(frozen=True)
class ProtectedWindow:
    """Window of ``cycles`` (a nonnegative integer) decoupling cycles, each scheduled by ``tau``."""

    sequence: PulseSequence
    cycles: int
    tau: float = 4e-6
    error: ErrorModel = IDEAL

    def __post_init__(self):
        if isinstance(self.cycles, bool) or not isinstance(self.cycles, (int, np.integer)) or self.cycles < 0:
            raise ValueError(f"cycles must be a nonnegative integer, got {self.cycles!r}")
        schedule(self.sequence, self.tau, self.error.pulse_width)
        _check_duration(self.duration)

    @property
    def duration(self) -> float:
        return self.cycles * self.sequence.cycle_time(self.tau)


@dataclass(frozen=True)
class MqcResult:
    """Tagged-echo signal and the coherence spectrum extracted from it."""

    spectrum: CoherenceSpectrum
    phases: np.ndarray
    signals: np.ndarray
    meta: dict


def mqc_phi_count(n_spins: int, phi_count: int | None = None) -> int:
    """Tag-grid size: ``phi_count``, which must not alias orders up to ``n_spins``, or a power of two >= ``4 n_spins``."""
    if phi_count is None:
        return 1 << int(np.ceil(np.log2(4 * n_spins)))
    if isinstance(phi_count, bool) or not isinstance(phi_count, (int, np.integer)):
        raise ValueError(f"phi_count must be an integer, got {phi_count!r}")
    if phi_count < 2 * n_spins + 2:
        raise ValueError(
            f"phi_count={phi_count} aliases coherence orders up to {n_spins}; "
            f"need at least {2 * n_spins + 2}"
        )
    return phi_count


def mqc_experiment(
    system: SpinSystem,
    tau_dq: float,
    phi_count: int | None = None,
    window: FreeWindow | ProtectedWindow | None = None,
) -> MqcResult:
    """Multiple-quantum growth/tag/(window)/reversal experiment.

    The collective Z operator ``rho_0`` grows to ``rho_tau = U rho_0 U^dag``,
    ``U = exp(-i H_DQ tau_dq)``, is tagged by ``Z_phi = exp(-i phi S_z)``,
    evolves under the window propagator ``W`` (``V e^{i k c} V^dag`` for k
    protected cycles, each ``e^{i mu} V e^{i c} V^dag``, whose global phase
    cancels in ``W^dag rho W``) and is reversed, so that
    ``S(phi) = Tr(U^dag W Z_phi rho_tau Z_phi^dag W^dag U rho_0) / Tr(rho_0^2)
    = sum_n c_n exp(-i n phi)``, with ``c_n`` the sum of ``rho_tau[a, b]
    Q[b, a] / Tr(rho_0^2)`` over ``m_a - m_b = n`` and ``Q = W^dag rho_tau W``
    (``rho_tau`` without a window).  The spectrum is ``Re c_n``, computed
    as those sums, and ``meta["imag_residual"]`` is ``max |Im c_n|``;
    ``signals`` is ``S`` on ``phi_count`` equally spaced angles, whose FFT
    recovers the ``c_n`` exactly when ``phi_count >= 2N + 2``.  Without a
    window the intensities are those of the grown state and sum to 1.
    ``H_DQ`` keeps the parity of the number of down spins, so ``U`` is
    factored over the two parity sectors.  ``tau_dq`` must be finite and
    nonnegative.
    """
    if not 0.0 <= tau_dq < np.inf:
        raise ValueError(f"tau_dq must be finite and nonnegative, got {tau_dq!r}")
    n = system.n_spins
    phi_count = mqc_phi_count(n, phi_count)
    if window is None:
        w = None
    elif isinstance(window, FreeWindow):
        w = HermitianPropagator(internal_hamiltonian(system), magnetization_sectors(n)).at(window.duration)
    elif isinstance(window, ProtectedWindow):
        c, _, v = _unitary_eigenphases(cycle_unitary(system, window.sequence, window.error, window.tau), basis=True)
        w = (v * np.exp(1j * window.cycles * c)) @ dagger(v)
    else:
        raise TypeError(f"unsupported window {window!r}")
    u_fwd = HermitianPropagator(dq_hamiltonian(system), parity_sectors(n)).at(tau_dq)
    m = magnetization(n)
    # rho_0 = diag(m)
    rho_tau = (u_fwd * m) @ u_fwd.conj().T
    q = rho_tau if w is None else w.conj().T @ rho_tau @ w
    coeffs = _order_sums(rho_tau * q.T, n) / float(m @ m)
    orders = np.arange(-n, n + 1)
    phases = 2 * np.pi * np.arange(phi_count) / phi_count
    signals = (np.exp(-1j * np.outer(phases, orders)) @ coeffs).real
    return MqcResult(
        spectrum=CoherenceSpectrum(orders=orders, intensities=coeffs.real),
        phases=phases,
        signals=signals,
        meta={
            "tau_dq_s": tau_dq,
            "phi_count": phi_count,
            "window_s": 0.0 if window is None else window.duration,
            "imag_residual": float(np.abs(coeffs.imag).max()),
        },
    )


def cluster_size(spectrum: CoherenceSpectrum, components: int = 1) -> tuple[float, ...]:
    """Correlated-spin number(s) from Gaussian fits to the order distribution.

    Fits ``I_n = sum_c A_c exp(-n^2 / N_c)`` and returns ``N = 2 sigma^2``
    per component, ascending.  Requires at least 3 distinct |n| with
    appreciable intensity.
    """
    if components not in (1, 2):
        raise ValueError("components must be 1 or 2")
    orders = spectrum.orders.astype(float)
    weights = np.clip(spectrum.intensities, 0.0, None)
    peak = weights.max()
    if peak <= 0.0:
        raise ValueError("spectrum is empty")
    support = {abs(int(o)) for o, w in zip(orders, weights) if w > 1e-9 * peak}
    if len(support) < 3:
        raise ValueError(
            "need at least 3 distinct coherence orders for a Gaussian fit"
        )
    n_sq = orders**2
    n0 = max(2.0 * float(np.sum(weights * n_sq) / np.sum(weights)), 1e-3)
    a0 = float(peak)

    def model(params):
        out = np.zeros_like(orders)
        for c in range(components):
            a, width = params[2 * c], params[2 * c + 1]
            out = out + a * np.exp(-n_sq / width)
        return out

    if components == 1:
        starts = [np.array([a0, n0])]
        lower = np.array([0.0, 1e-6])
        upper = np.array([10.0 * a0, 1e6])
    else:
        starts = [
            np.array([a0, n0 / 4.0, a0 / 4.0, 4.0 * n0]),
            np.array([a0, n0 / 10.0, a0 / 10.0, 2.0 * n0]),
            np.array([a0 / 2.0, n0 / 2.0, a0 / 2.0, 2.0 * n0]),
            np.array([a0, n0, a0 / 20.0, 10.0 * n0]),
        ]
        lower = np.array([0.0, 1e-6, 0.0, 1e-6])
        upper = np.array([10.0 * a0, 1e6, 10.0 * a0, 1e6])
    best = _best_fit(lambda p: model(p) - weights, starts, lower, upper, 1e-9, 2000)
    widths = sorted(float(best.x[2 * c + 1]) for c in range(components))
    return tuple(widths)
