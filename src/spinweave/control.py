"""Pulse-error models, cycle propagators, fidelity metrics, and sweeps.

The fidelity of one decoupling cycle is
``F = |Tr(U_th^dag U_exp^{1/M})| / 2^N`` with ``M`` the number of tau
windows in the cycle and ``U_th`` defaulting to identity.  Taking the
modulus and normalizing makes F lie in [0, 1], renders the +/-identity
cyclicity phase harmless, and leaves F invariant under a global phase.

Ensemble sweeps evaluate one error parameter at a time over seeded
coupling/disorder ensembles; every ensemble member is a pure function of
``(base_seed, indices)``, and reductions are order-independent, so results
do not depend on the parallelism degree.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .aht import MagnusSeries, magnus_series
from .operators import (
    Operator,
    as_operator,
    expm_hermitian,
    require_unitary,
    spectral_norm,
    unitarity_defect,
    unitary_root,
)
from .sequences import PulseSequence, builtin, schedule
from .spins import (
    DEFAULT_COUPLING_SIGMA_HZ,
    SpinSystem,
    collective_operator,
    collective_rotation,
    internal_hamiltonian,
    kron_power,
    magnetization_sectors,
    sample_couplings,
    sample_disorder,
)

__all__ = [
    "ErrorModel",
    "IDEAL",
    "WeakPulseWarning",
    "NumericalDiagnosticError",
    "collective_phase_operator",
    "pulse_unitary",
    "FreeEvolution",
    "cycle_unitary",
    "fidelity",
    "nth_order_fidelity",
    "SweepSpec",
    "SweepRow",
    "SWEEPABLE_PARAMETERS",
    "ensemble_fidelity",
    "loglog_slope",
    "resolve_threads",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "SPINWEAVE_THREADS"

# Disorder samples draw from a seed stream displaced from the coupling-set
# stream so the two never collide for any realistic ensemble size.
DISORDER_SEED_OFFSET = 1 << 20


class WeakPulseWarning(UserWarning):
    """Finite pulse whose drive strength is below the internal Hamiltonian scale."""


class NumericalDiagnosticError(RuntimeError):
    """A computed propagator failed its numerical sanity check."""


@dataclass(frozen=True)
class ErrorModel:
    """Pulse imperfections applied to every pi/2 pulse of a cycle.

    Attributes:
        pulse_width: RF pulse duration t_w in seconds (0 means delta pulses).
        rotation_error: fractional over/under rotation epsilon.
        transient_leading: leading-edge phase transient strength alpha_l,
            as a fraction of the pi/2 rotation, applied 90 deg out of phase.
        transient_trailing: trailing-edge counterpart alpha_tr.
    """

    pulse_width: float = 0.0
    rotation_error: float = 0.0
    transient_leading: float = 0.0
    transient_trailing: float = 0.0

    def __post_init__(self):
        if self.pulse_width < 0:
            raise ValueError("pulse_width must be nonnegative")

    @classmethod
    def symmetric_transients(
        cls, alpha: float, pulse_width: float = 0.0, rotation_error: float = 0.0
    ) -> "ErrorModel":
        """Transients balanced over both pulse edges (alpha_l = alpha_tr)."""
        return cls(
            pulse_width=pulse_width,
            rotation_error=rotation_error,
            transient_leading=alpha,
            transient_trailing=alpha,
        )

    @property
    def is_delta(self) -> bool:
        return self.pulse_width == 0.0


IDEAL = ErrorModel()


def collective_phase_operator(n_spins: int, phase_deg: float) -> Operator:
    """Collective in-plane spin operator ``cos(phi) Sx + sin(phi) Sy``."""
    phi = np.deg2rad(phase_deg)
    return np.cos(phi) * collective_operator(n_spins, "x") + np.sin(phi) * collective_operator(n_spins, "y")


def _warn_if_weak(error: ErrorModel, h_norm: float) -> None:
    if (np.pi / 2) / error.pulse_width < h_norm:
        warnings.warn(
            "pulse drive strength below the internal Hamiltonian scale; "
            "the pulse is physically weak",
            WeakPulseWarning,
            stacklevel=3,
        )


def _pulse(phase_deg: float, error: ErrorModel, n_spins: int, h_int: Operator | None) -> Operator:
    if error.is_delta:
        u = collective_rotation(n_spins, phase_deg, (np.pi / 2) * (1.0 + error.rotation_error))
    else:
        omega1 = (np.pi / 2) / error.pulse_width
        s_phi = collective_phase_operator(n_spins, phase_deg)
        generator = h_int + omega1 * (1.0 + error.rotation_error) * s_phi
        u = expm_hermitian(generator, error.pulse_width)
    if error.transient_leading != 0.0:
        u = u @ collective_rotation(n_spins, phase_deg + 90.0, (np.pi / 2) * error.transient_leading)
    if error.transient_trailing != 0.0:
        u = collective_rotation(n_spins, phase_deg + 90.0, (np.pi / 2) * error.transient_trailing) @ u
    return u


def pulse_unitary(
    phase_deg: float,
    error: ErrorModel,
    n_spins: int,
    h_int: Operator | None = None,
) -> Operator:
    """Unitary of one nominal pi/2 pulse with the configured imperfections.

    Delta pulses compose three instantaneous rotations: leading transient
    kick (90 deg out of phase), the (1 + epsilon)-scaled main rotation, and
    the trailing kick.  Finite pulses evolve under
    ``h_int + omega_1 (1 + epsilon) S_phi`` for ``t_w`` with
    ``omega_1 t_w = pi/2``, sandwiched by the same instantaneous edge kicks.
    """
    if not error.is_delta:
        if h_int is None:
            raise ValueError("finite-width pulses require the internal Hamiltonian")
        _warn_if_weak(error, spectral_norm(h_int))
    return _pulse(phase_deg, error, n_spins, h_int)


class FreeEvolution:
    """``exp(-i H_int t)`` of one spin system, factored sector by sector.

    ``H_int = H_D + H_offset`` conserves total S_z, so one ``eigh`` per
    magnetization sector (sizes ``C(N, k)``) diagonalizes it; the sector
    layout comes from :func:`spinweave.spins.magnetization_sectors`.
    """

    def __init__(self, system: SpinSystem):
        self.layout = magnetization_sectors(system.n_spins)
        self.hamiltonian = internal_hamiltonian(system)
        order = self.layout.order
        h = self.hamiltonian[np.ix_(order, order)]
        self._factors = [np.linalg.eigh(h[span, span]) for span in self.layout.spans]

    @property
    def spectral_norm(self) -> float:
        """Largest absolute eigenvalue of ``H_int``."""
        return max(float(np.abs(w).max()) for w, _ in self._factors)

    def blocks(self, t: float) -> list[Operator]:
        """Per-sector propagators ``exp(-i H_k t)``, in ``layout.spans`` order."""
        return [(v * np.exp(-1j * w * t)) @ v.conj().T for w, v in self._factors]

    def at(self, t: float) -> Operator:
        """Dense ``exp(-i H_int t)`` in the standard basis."""
        dim = len(self.layout.order)
        u = np.zeros((dim, dim), dtype=np.complex128)
        for span, block in zip(self.layout.spans, self.blocks(t)):
            states = self.layout.order[span]
            u[np.ix_(states, states)] = block
        return u


def cycle_unitary(
    system: SpinSystem,
    seq: PulseSequence,
    error: ErrorModel = IDEAL,
    tau: float = 4e-6,
) -> Operator:
    """Propagator of one full cycle: delays under ``H_D + H_offset`` plus pulses.

    Pulses are flushed to the end of their delay window so the cycle time is
    ``M tau`` for every pulse width (see :func:`spinweave.sequences.schedule`).

    The product is accumulated with its rows in magnetization-sector order
    (:class:`FreeEvolution`).  A free step is one matmul per sector block,
    built once per distinct duration.  A delta pulse with its rotation
    error and transient kicks is exactly ``r^{(x)N}`` with ``r`` the
    one-spin pulse, and is applied as two Kronecker factors on ``ceil(N/2)``
    and ``floor(N/2)`` spins.  Finite-width pulses do not conserve S_z and
    are applied as dense matrices: one factorization builds the phase-0
    pulse, and every other phase is that pulse turned about z.  The result
    is checked to be unitary to 1e-10.
    """
    n = system.n_spins
    steps = schedule(seq, tau, error.pulse_width)
    free = FreeEvolution(system)
    order, inverse, spans = free.layout.order, free.layout.inverse, free.layout.spans
    phases = {value for kind, value in steps if kind == "pulse"}
    durations = {value for kind, value in steps if kind == "free"}
    if error.is_delta:
        half = (n + 1) // 2
        pulses = {}
        for phase in phases:
            r = pulse_unitary(phase, error, 1)
            pulses[phase] = (kron_power(r, half), kron_power(r, n - half))
    else:
        _warn_if_weak(error, free.spectral_norm)
        # H_int commutes with S_z, so the pulse of phase phi is the phase-0
        # pulse turned about z: exp(-i phi S_z) P_0 exp(+i phi S_z)
        p0 = _pulse(0.0, error, n, free.hamiltonian)[np.ix_(order, order)]
        m_z = np.concatenate([np.full(s.stop - s.start, n / 2 - k) for k, s in enumerate(spans)])
        pulses = {}
        for phase in phases:
            z = np.exp(-1j * np.deg2rad(phase) * m_z)
            pulses[phase] = (z[:, None] * p0) * z.conj()
    free_steps = {t: free.blocks(t) for t in durations}
    u = np.eye(system.dim, dtype=np.complex128)
    buf = np.empty_like(u)
    for kind, value in steps:
        if kind == "free":
            for span, block in zip(spans, free_steps[value]):
                np.matmul(block, u[span], out=buf[span])
            u, buf = buf, u
        elif error.is_delta:
            # rows to the standard basis, A (x) B on the leading axes, rows back
            a, b = pulses[value]
            natural = buf.reshape(len(a), len(b), -1)
            np.take(u, inverse, axis=0, out=buf)
            np.matmul(b, (a @ buf.reshape(len(a), -1)).reshape(natural.shape), out=natural)
            np.take(buf, order, axis=0, out=u)
        else:
            np.matmul(pulses[value], u, out=buf)
            u, buf = buf, u
    u = u[np.ix_(inverse, inverse)]
    defect = unitarity_defect(u)
    if defect > 1e-10:
        raise NumericalDiagnosticError(
            f"cycle propagator of {seq.name!r} is not unitary (defect {defect:.3e})"
        )
    return u


def fidelity(u_exp: Operator, u_th: Operator | None = None, m: int = 1) -> float:
    """Normalized trace fidelity ``|Tr(u_th^dag u_exp^{1/m})| / dim`` in [0, 1].

    ``m`` rescales the experimental cycle propagator to an effective
    per-window unitary so sequences of different cycle lengths compare
    fairly; ``u_th`` defaults to the identity (decoupling target).
    """
    u_exp = as_operator(u_exp)
    root = unitary_root(u_exp, m)
    if u_th is None:
        tr = np.trace(root)
    else:
        u_th = require_unitary(u_th)
        if u_th.shape != u_exp.shape:
            raise ValueError(
                f"dimension mismatch: {u_th.shape} vs {u_exp.shape}"
            )
        tr = np.trace(u_th.conj().T @ root)
    return min(float(np.abs(tr)) / u_exp.shape[0], 1.0)


def nth_order_fidelity(
    system: SpinSystem,
    seq: PulseSequence,
    tau: float,
    order: int,
    series: MagnusSeries | None = None,
    order_cap: int | None = None,
) -> float:
    """Fidelity against the order-n effective target instead of identity.

    ``F_n = |Tr(U_th,n^dag U_exp^{1/M})| / dim`` with
    ``U_th,n = exp(-i tau sum_{j<=n} H^(j))``, the per-window unitary the
    truncated effective Hamiltonian predicts.  Defined for instantaneous
    pulses with no errors; when the sequence decouples through order n the
    target collapses to identity and F_n equals the plain fidelity.
    """
    if series is None:
        series = magnus_series(system, seq, tau, order, order_cap=order_cap)
    if order > series.max_order:
        raise ValueError(
            f"order {order} beyond computed series (max {series.max_order})"
        )
    u_exp = cycle_unitary(system, seq, IDEAL, tau)
    u_th = expm_hermitian(series.partial_sum(order), tau)
    return fidelity(u_exp, u_th, m=seq.cycle_windows)


SWEEPABLE_PARAMETERS = (
    "tau",
    "pulse_width",
    "disorder_sigma_hz",
    "global_offset_hz",
    "rotation_error",
    "transient",
)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter fidelity sweep over a seeded ensemble.

    ``parameter`` names the swept field; all other error/system fields hold
    their configured values.  ``transient`` sets symmetric edge transients
    (alpha_l = alpha_tr).  The ensemble crosses ``n_coupling_sets`` coupling
    draws with ``n_disorder_samples`` disorder draws.
    """

    parameter: str
    grid: tuple[float, ...]
    sequences: tuple[str, ...] = ("WHH", "MREV8", "MREV16", "BR24", "CORY48", "YXX24", "YXX48")
    n_spins: int = 8
    n_coupling_sets: int = 16
    coupling_sigma_hz: float = DEFAULT_COUPLING_SIGMA_HZ
    n_disorder_samples: int = 1
    disorder_sigma_hz: float = 0.0
    global_offset_hz: float = 0.0
    tau: float = 4e-6
    pulse_width: float = 0.0
    rotation_error: float = 0.0
    transient: float = 0.0
    base_seed: int = 2026

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"sweep parameter must be one of {SWEEPABLE_PARAMETERS}, "
                f"got {self.parameter!r}"
            )
        if len(self.grid) == 0:
            raise ValueError("sweep grid is empty")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "sequences", tuple(self.sequences))


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    sequence: str
    mean_infidelity: float
    stddev: float
    n_samples: int


def resolve_threads(threads: int | None = None) -> int:
    """Parallelism degree: explicit argument, then the environment, then usable cores.

    Usable cores are those in the process's CPU affinity mask where the
    platform reports one, else ``os.cpu_count()``.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _member_infidelity(
    spec: SweepSpec, seq: PulseSequence, value: float, set_idx: int, dis_idx: int
) -> float:
    params = {
        "tau": spec.tau,
        "pulse_width": spec.pulse_width,
        "disorder_sigma_hz": spec.disorder_sigma_hz,
        "global_offset_hz": spec.global_offset_hz,
        "rotation_error": spec.rotation_error,
        "transient": spec.transient,
    }
    params[spec.parameter] = value
    couplings = sample_couplings(
        spec.base_seed + set_idx, spec.n_spins, spec.coupling_sigma_hz
    )
    if params["disorder_sigma_hz"] > 0.0:
        disorder = sample_disorder(
            spec.base_seed + DISORDER_SEED_OFFSET + dis_idx,
            spec.n_spins,
            params["disorder_sigma_hz"],
        )
    else:
        disorder = np.zeros(spec.n_spins)
    system = SpinSystem.create(
        couplings, disorder_hz=disorder, global_offset_hz=params["global_offset_hz"]
    )
    error = ErrorModel(
        pulse_width=params["pulse_width"],
        rotation_error=params["rotation_error"],
        transient_leading=params["transient"],
        transient_trailing=params["transient"],
    )
    u = cycle_unitary(system, seq, error, params["tau"])
    return 1.0 - fidelity(u, m=seq.cycle_windows)


def ensemble_fidelity(spec: SweepSpec, threads: int | None = None) -> list[SweepRow]:
    """Mean infidelity per (grid value, sequence) over the seeded ensemble.

    Deterministic for a fixed ``base_seed``: members are indexed tasks, and
    the mean/stddev reductions are performed on the assembled per-member
    array, so the thread count never changes the output.
    """
    sequences = [builtin(name) for name in spec.sequences]
    n_members = spec.n_coupling_sets * spec.n_disorder_samples
    if n_members == 0:
        raise ValueError("ensemble is empty")
    results = np.zeros((len(spec.grid), len(sequences), n_members))
    tasks = [
        (i, j, k, s, d)
        for i in range(len(spec.grid))
        for j in range(len(sequences))
        for k, (s, d) in enumerate(
            (s, d)
            for s in range(spec.n_coupling_sets)
            for d in range(spec.n_disorder_samples)
        )
    ]

    def run(task):
        i, j, k, set_idx, dis_idx = task
        results[i, j, k] = _member_infidelity(
            spec, sequences[j], spec.grid[i], set_idx, dis_idx
        )

    n_threads = resolve_threads(threads)
    if n_threads == 1:
        for task in tasks:
            run(task)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(run, tasks))
    rows = []
    for i, value in enumerate(spec.grid):
        for j, seq in enumerate(sequences):
            member_vals = results[i, j]
            rows.append(
                SweepRow(
                    parameter=spec.parameter,
                    value=value,
                    sequence=seq.name,
                    mean_infidelity=float(np.mean(member_vals)),
                    stddev=float(np.std(member_vals)),
                    n_samples=n_members,
                )
            )
    return rows


def loglog_slope(
    x: np.ndarray,
    y: np.ndarray,
    n_points: int = 4,
    floor: float = 1e-13,
    side: str = "small",
) -> float:
    """Least-squares slope of log10(y) vs log10(x) over an asymptotic window.

    Keeps points with ``y > floor`` (the numerical noise floor), then fits
    the ``n_points`` smallest-x points (``side="small"``) or largest-x
    points (``side="large"``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (y > floor) & (x > 0)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise ValueError("not enough points above the noise floor for a slope fit")
    order = np.argsort(x)
    idx = order[:n_points] if side == "small" else order[-n_points:]
    coeffs = np.polyfit(np.log10(x[idx]), np.log10(y[idx]), 1)
    return float(coeffs[0])
