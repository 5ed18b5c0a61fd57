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

import dataclasses
import functools
import math
import numbers
import os
import queue
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aht import MagnusSeries, magnus_series
from .operators import (
    DEFECT_TOL,
    MAX_SPINS,
    HermitianPropagator,
    NumericalDiagnosticError,
    Operator,
    _require_root_order,
    _require_unitary_blocks,
    _unitarity_defects,
    _unitary_eigenphases,
    as_operator,
    expm_hermitian,
    require_hermitian,
    require_unitary,
    unitary_root,
)
from .sequences import (
    BUILTIN_NAMES,
    NonCyclicSequenceError,
    PulseSequence,
    _toggling_axes,
    builtin,
    schedule,
    validate_cyclic,
)
from .spins import (
    DEFAULT_COUPLING_SIGMA_HZ,
    SpinSystem,
    _PAIR_FACTORS,
    _pair_stack,
    _parity_blocks,
    _parity_stack_blocks,
    collective_phase_operator,
    collective_rotation,
    kron_power,
    magnetization,
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
    "cycle_unitary",
    "fidelity",
    "nth_order_fidelity",
    "nth_order_fidelities",
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "SWEEPABLE_PARAMETERS",
    "ensemble_fidelity",
    "resolve_threads",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "SPINWEAVE_THREADS"

# Disorder samples draw from a seed stream displaced from the coupling-set
# stream so the two never collide for any realistic ensemble size.
DISORDER_SEED_OFFSET = 1 << 20


class WeakPulseWarning(UserWarning):
    """Finite pulse whose drive strength is below the internal Hamiltonian scale."""


def _angle_overflows(name: str, value: float) -> bool:
    """Whether an error field's rotation angle is not finite.

    The main rotation turns by (pi/2)(1 + rotation_error), an edge kick by
    (pi/2) times its transient; other fields set no angle.
    """
    if name == "rotation_error":
        return not math.isfinite((math.pi / 2) * (1.0 + value))
    return name.startswith("transient") and not math.isfinite((math.pi / 2) * value)


@dataclass(frozen=True)
class ErrorModel:
    """Pulse imperfections applied to every pi/2 pulse of a cycle.

    Attributes:
        pulse_width: RF pulse duration t_w in seconds (0 means delta pulses).
        rotation_error: fractional over/under rotation epsilon.
        transient_leading: leading-edge phase transient strength alpha_l,
            as a fraction of the pi/2 rotation, applied 90 deg out of phase.
        transient_trailing: trailing-edge counterpart alpha_tr.

    Every field must be finite, and so must each rotation angle it sets
    (:func:`_angle_overflows`).  A finite pulse is built from its angle
    and ``h_int t_w``, so no drive ``(pi/2) / t_w`` is formed and every
    width that fits its window is usable.
    """

    pulse_width: float = 0.0
    rotation_error: float = 0.0
    transient_leading: float = 0.0
    transient_trailing: float = 0.0

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if _angle_overflows(name, value):
                raise ValueError(f"{name} overflows its rotation angle, got {value!r}")
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


def _warn_if_weak(error: ErrorModel, h_norm: float) -> None:
    """Warn if the pulse angle pi/2 is below the internal phase ``|H| t_w`` it accrues."""
    if np.pi / 2 < h_norm * error.pulse_width:
        warnings.warn(
            "pulse drive strength below the internal Hamiltonian scale; "
            "the pulse is physically weak",
            WeakPulseWarning,
            stacklevel=3,
        )


def _pulse(phase_deg: float, error: ErrorModel, n_spins: int, h_int: np.ndarray | None) -> np.ndarray:
    """One pulse; finite pulses take ``h_int`` as one matrix or a (B, d, d) stack.

    A finite pulse is ``exp(-i G)`` with ``G = h_int t_w + (pi/2)(1 + epsilon) S_phi``;
    a ``G`` that overflows raises :class:`NumericalDiagnosticError`.
    """
    angle = (np.pi / 2) * (1.0 + error.rotation_error)
    if error.is_delta:
        u = collective_rotation(n_spins, phase_deg, angle)
    else:
        with np.errstate(over="ignore"):
            generator = h_int * error.pulse_width + angle * collective_phase_operator(n_spins, phase_deg)
        if not np.isfinite(generator).all():
            raise NumericalDiagnosticError(f"pulse generator h_int t_w overflows at pulse_width {error.pulse_width!r}")
        u = expm_hermitian(generator, 1.0)
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
    ``omega_1 t_w = pi/2``, sandwiched by the same instantaneous edge kicks;
    the propagator is built as ``exp(-i (h_int t_w + (pi/2)(1 + epsilon) S_phi))``,
    so ``omega_1`` itself is never formed.
    """
    if not error.is_delta:
        if h_int is None:
            raise ValueError("finite-width pulses require the internal Hamiltonian")
        _warn_if_weak(error, float(np.abs(np.linalg.eigvalsh(require_hermitian(h_int))).max()))
    return _pulse(phase_deg, error, n_spins, h_int)


class _CycleKernel:
    """Cycle propagators of one member stack under one error model.

    The stack is B members of n spins, given by their (B, n, n) couplings
    and (B, n) total offsets, both in Hz: a member's offset row is what
    :attr:`SpinSystem.total_offsets_hz` reads.  H_int and ``H_D^(x,y,z)``
    are built from these arrays by :func:`spinweave.spins._pair_stack`.

    A cycle takes one of two paths, chosen from the inputs alone.  With the
    error model ``IDEAL``, every offset zero, only
    cardinal pulse phases and a cyclic sequence (``validate_cyclic`` gives
    ``s``), window j's toggling-frame Hamiltonian is ``H_D^(a_j)``, H_D
    with its axis turned to the frame-matrix axis ``a_j`` of x, y, z
    (:func:`spinweave.sequences._toggling_axes`), and the cycle is
    ``s^N prod_j exp(-i H_D^(a_j) tau_j)``.  Each ``H_D^(a)`` commutes with
    the global parities, so the walk runs on the parity blocks of
    :func:`spinweave.spins._parity_blocks` (4 of d/4 for even N, 1 of d/2
    for odd N), one (B, blocks, k, k) matmul per free step, with every
    ``H_D^(a)`` factored by one batched real :class:`HermitianPropagator`.

    Every other cycle takes the lab-frame path, which factors the H_int
    stack by magnetization sector (built on first use) and, for finite
    pulses, holds the phase-0 pulse ``P_0`` in sector order.  A
    finite-pulse cycle is a walk over windows, each a free step of
    duration ``a`` (possibly 0) and the pulse of phase phi after it,
    applied as one matmul by ``Z_phi (P_0 F_a) Z_phi^dag`` with
    ``Z_phi = exp(-i phi S_z)``: H_int commutes with S_z, so Z turns
    ``P_0`` into the phase-phi pulse and commutes with the sector-diagonal
    free step ``F_a``.  ``P_0 F_a`` is built by one matmul per sector block
    of ``F_a``, and those blocks are not kept.

    The kernel keeps every step operator of one tau in one dict,
    :attr:`steps`, so that every sequence called with that tau reuses
    them: the parity-path and the lab-frame sector free steps, keyed by
    duration, and the windows ``P_0 F_a``, keyed by ``a > 0``.  A call
    with another tau replaces the dict.  ``P_0`` lasts as long as the
    kernel, and the windows turned by ``Z_phi`` last one call.
    """

    def __init__(self, couplings_hz: np.ndarray, offsets_hz: np.ndarray, error: ErrorModel):
        self.couplings_hz, self.offsets_hz = couplings_hz, offsets_hz
        self.members, self.n_spins = couplings_hz.shape[:2]
        self.error = error
        self.offset_free = error == IDEAL and not offsets_hz.any()
        self.tau, self.steps = None, {}
        if not error.is_delta:
            h_int = _pair_stack(couplings_hz, _PAIR_FACTORS["z"], offsets_hz)
            self.free = HermitianPropagator(h_int, magnetization_sectors(self.n_spins))
            _warn_if_weak(error, float(self.free.spectral_norm.max()))
            order = self.free.layout.order
            self.p0 = _pulse(0.0, error, self.n_spins, h_int)[:, order[:, None], order]

    @functools.cached_property
    def free(self) -> HermitianPropagator:
        """The H_int stack factored by magnetization sector; ``__init__`` sets it for finite pulses."""
        return HermitianPropagator(_pair_stack(self.couplings_hz, _PAIR_FACTORS["z"], self.offsets_hz), magnetization_sectors(self.n_spins))

    @functools.cached_property
    def parity(self) -> HermitianPropagator:
        """``H_D^(x,y,z)`` of every member on the parity blocks, as one real (B * 3 * blocks, k, k) stack.

        A block element is the sum of two H_D elements; one that overflows
        raises :class:`NumericalDiagnosticError`.
        """
        couplings, blocks = self.couplings_hz, _parity_blocks(self.n_spins)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.stack([blocks.from_standard(_pair_stack(couplings, _PAIR_FACTORS[a], dtype=np.float64)) for a in "xyz"], axis=1)
        if not np.isfinite(h).all():
            raise NumericalDiagnosticError("parity blocks of H_D overflow in rad/s")
        return HermitianPropagator(h.reshape(-1, *h.shape[-2:]))

    def cycles(self, seq: PulseSequence, tau: float) -> np.ndarray:
        """(B, d, d) cycle propagators in the standard basis, each checked unitary to 1e-10; a new ``tau`` starts a new :attr:`steps`."""
        if tau != self.tau:
            self.tau, self.steps = tau, {}
        axes = _toggling_axes(schedule(seq, tau)) if self.offset_free else None
        if axes is not None:
            try:
                sign = validate_cyclic(seq)
            except NonCyclicSequenceError:
                axes = None
        u = self._lab_cycles(seq, tau) if axes is None else self._parity_cycles(axes, sign)
        defect = _unitarity_defects(u)
        if not np.all(defect <= DEFECT_TOL):
            raise NumericalDiagnosticError(
                f"cycle propagator of {seq.name!r} is not unitary (defect {defect.max():.3e})"
            )
        return u if axes is None else _parity_blocks(self.n_spins).to_standard(u)

    def _step(self, kind: str, duration: float, build):
        """The step of ``kind`` and ``duration`` in :attr:`steps`, ``build(duration)`` on first use."""
        if (kind, duration) not in self.steps:
            self.steps[kind, duration] = build(duration)
        return self.steps[kind, duration]

    def _parity_cycles(self, axes: list[tuple[int, int, float]], sign: int) -> np.ndarray:
        """(B, blocks, k, k) cycle propagators on the parity blocks, one matmul per toggling axis."""
        blocks = _parity_blocks(self.n_spins)
        k = blocks.states.shape[1]
        u = np.empty((self.members, blocks.blocks, k, k), dtype=np.complex128)
        u[:] = np.eye(k)
        buf = np.empty_like(u)
        for axis, _, duration in axes:
            free = self._step("parity", duration, self.parity.blocks)[0].reshape(self.members, 3, *u.shape[1:])
            np.matmul(free[:, axis], u, out=buf)
            u, buf = buf, u
        if sign ** self.n_spins < 0:
            np.negative(u, out=u)
        return u

    def _lab_cycles(self, seq: PulseSequence, tau: float) -> np.ndarray:
        """(B, d, d) cycle propagators composed in the lab frame."""
        n, error, free = self.n_spins, self.error, self.free
        order, inverse, spans = free.layout.order, free.layout.inverse, free.layout.spans
        steps = schedule(seq, tau, error.pulse_width)
        if not error.is_delta:
            # fold each free step into the pulse after it, as ("pulse", (a, phase));
            # a trailing free step stays a sector step
            windows, a = [], 0.0
            for kind, value in steps:
                if kind == "pulse":
                    windows.append((kind, (a, value)))
                a = a + value if kind == "free" else 0.0
            steps = windows + ([("free", a)] if a else [])
        phases = {value for kind, value in steps if kind == "pulse"}
        m_z = magnetization(n)[order]
        fold = lambda a: np.concatenate([self.p0[..., s] @ f for s, f in zip(spans, free.blocks(a))], axis=-1)
        pulses = {}
        for phase in phases:
            if error.is_delta:
                r = pulse_unitary(phase, error, 1)
                pulses[phase] = (kron_power(r, (n + 1) // 2), kron_power(r, n // 2))
            else:
                a, phi = phase
                z = np.exp(-1j * np.deg2rad(phi) * m_z)
                pulses[phase] = (self._step("window", a, fold) if a else self.p0) * (z[:, None] * z.conj())
        stack, dim = self.members, 1 << n
        u = np.empty((stack, dim, dim), dtype=np.complex128)
        u[:] = np.eye(dim)
        buf = np.empty_like(u)
        for kind, value in steps:
            if kind == "free":
                for span, block in zip(spans, self._step("free", value, free.blocks)):
                    np.matmul(block, u[:, span], out=buf[:, span])
                u, buf = buf, u
            elif error.is_delta:
                # rows to the standard basis, A (x) B on the leading axes, rows back;
                # u is free scratch once its rows are in buf.  Indices are always
                # in range, and mode="clip" lets take write into out unbuffered
                a, b = pulses[value]
                np.take(u, inverse, axis=1, out=buf, mode="clip")
                np.matmul(a, buf.reshape(stack, len(a), -1), out=u.reshape(stack, len(a), -1))
                np.matmul(b, u.reshape(stack, len(a), len(b), dim), out=buf.reshape(stack, len(a), len(b), dim))
                np.take(buf, order, axis=1, out=u, mode="clip")
            else:
                np.matmul(pulses[value], u, out=buf)
                u, buf = buf, u
        np.take(u, inverse, axis=1, out=buf, mode="clip")
        np.take(buf, inverse, axis=2, out=u, mode="clip")
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

    This is the one-member call of the stacked :class:`_CycleKernel`, on
    ``system.couplings_hz[None]`` and ``system.total_offsets_hz[None]``;
    :func:`ensemble_fidelity` runs it on whole member stacks, so a member
    of a sweep equals this call bit for bit.  With ``error`` equal to
    ``IDEAL``, no offsets in ``system``, cardinal pulse phases and a cyclic
    ``seq``, the cycle is walked in the toggling frame on the parity
    blocks of ``H_D^(x,y,z)``.  Every other cycle is composed in the lab
    frame, one matmul per magnetization sector of H_int per free step,
    each delta pulse applied as two Kronecker factors and each finite
    pulse folded with the free step before it into one dense window
    (the kernel gives each path's products).  On either path the result
    is checked to be unitary to 1e-10.
    """
    return _CycleKernel(system.couplings_hz[None], system.total_offsets_hz[None], error).cycles(seq, tau)[0]


def _eigenphase_fidelity(u: np.ndarray, m: int, check: bool = False) -> np.ndarray:
    """``|Tr(u^{1/m})| / d`` of each member of a (B, d, d) unitary stack, shape (B,).

    Each eigenphase ``mu + c`` from ``eigvalsh`` of the centred Cayley
    transform (:func:`spinweave.operators._unitary_eigenphases`, which
    :func:`unitary_root` shares) maps to ``(mu + c) / m``.  The stack is
    solved once, on the parity blocks of
    :func:`spinweave.spins._parity_stack_blocks` when every member has
    them (as parity-path :func:`cycle_unitary` members do) and whole
    otherwise: 4 blocks of d/4 at even N, one of d/2 counted twice at odd
    N.  A member's blocks are centred on its trace phase and recentred
    together, so ``mu + c`` lies on the branch of a dense solve.  A member
    of a mixed stack differs from its one-member call by roundoff.  With
    ``check``, each member is first checked unitary to ``DEFECT_TOL`` on
    the blocks it is solved on (``ValueError``).
    """
    blocks = _parity_stack_blocks(u)
    stack = u if blocks is None else blocks
    if check:
        _require_unitary_blocks(stack)
    c, mu = _unitary_eigenphases(stack)
    c = c.reshape(len(stack), -1, c.shape[-1])
    # block traces first, then their sum; the odd-N parity block stands for two
    tr = (u.shape[-1] // c[0].size) * np.exp(1j * (mu[:, None, None] + c) / m).sum(axis=-1).sum(axis=-1)
    return np.minimum(np.abs(tr) / u.shape[-1], 1.0)


def fidelity(u_exp: Operator, u_th: Operator | None = None, m: int = 1) -> float:
    """Normalized trace fidelity ``|Tr(u_th^dag u_exp^{1/m})| / dim`` in [0, 1].

    ``m`` rescales the experimental cycle propagator to an effective
    per-window unitary so sequences of different cycle lengths compare
    fairly; ``u_th`` defaults to the identity (decoupling target).  ``m``
    must be a whole number in 1..2**53 (``ValueError``).

    Without a target F is :func:`_eigenphase_fidelity` of ``u_exp``, the
    helper that scores whole member stacks in :func:`ensemble_fidelity`,
    so a global phase of ``u_exp`` does not change it.  The input must be
    unitary to 1e-10 (else ``ValueError``), checked on the blocks it is
    solved on; eigenvalues off the unit circle (a Cayley transform more
    than 1e-7 from Hermitian) raise :class:`NumericalDiagnosticError`.
    With a target the explicit root of :func:`unitary_root`, built from
    ``eigh`` of the same transform, is used.
    """
    _require_root_order(m)
    if u_th is None:
        return float(_eigenphase_fidelity(as_operator(u_exp)[None], m, check=True)[0])
    u_exp = as_operator(u_exp)
    u_th = require_unitary(u_th)
    if u_th.shape != u_exp.shape:
        raise ValueError(
            f"dimension mismatch: {u_th.shape} vs {u_exp.shape}"
        )
    return _root_overlap(unitary_root(u_exp, m), u_th)


def _root_overlap(root: Operator, u_th: Operator) -> float:
    """``|Tr(u_th^dag root)| / dim``, capped at 1."""
    return min(float(np.abs(np.trace(u_th.conj().T @ root))) / root.shape[0], 1.0)


def nth_order_fidelities(
    system: SpinSystem,
    seq: PulseSequence,
    tau: float,
    orders,
    series: MagnusSeries | None = None,
) -> list[float]:
    """Fidelity against the order-n effective target, one value per order.

    ``F_n = |Tr(U_th,n^dag U_exp^{1/M})| / dim`` with
    ``U_th,n = exp(-i tau sum_{j<=n} H^(j))``, the per-window unitary the
    truncated effective Hamiltonian predicts.  Defined for instantaneous
    pulses with no errors; when the sequence decouples through order n the
    target collapses to identity and F_n equals the plain fidelity.

    The cycle and its root ``U_exp^{1/M}`` (:func:`unitary_root`, from
    ``eigh`` of the centred Cayley transform) are built once for all
    orders; each value equals the one-order call :func:`nth_order_fidelity`
    bit for bit.  ``series`` defaults to the Magnus series through
    ``max(orders)``.
    """
    orders = list(orders)
    if not orders:
        return []
    if series is None:
        series = magnus_series(system, seq, tau, max(orders))
    if max(orders) > series.max_order:
        raise ValueError(
            f"order {max(orders)} beyond computed series (max {series.max_order})"
        )
    root = unitary_root(cycle_unitary(system, seq, IDEAL, tau), seq.cycle_windows)
    return [
        _root_overlap(root, require_unitary(expm_hermitian(series.partial_sum(n), tau)))
        for n in orders
    ]


def nth_order_fidelity(
    system: SpinSystem,
    seq: PulseSequence,
    tau: float,
    order: int,
    series: MagnusSeries | None = None,
) -> float:
    """F_n of one order: the one-order call of :func:`nth_order_fidelities`, with the same ``series`` default."""
    return nth_order_fidelities(system, seq, tau, [order], series)[0]


SWEEPABLE_PARAMETERS = (
    "tau",
    "pulse_width",
    "disorder_sigma_hz",
    "global_offset_hz",
    "rotation_error",
    "transient",
)


class ConfigError(ValueError):
    """Aggregated configuration problems, one human-readable line each.

    A line about a :class:`SweepSpec` field opens with the field's name.
    """

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


def _field_problem(name: str, value, integer: bool) -> str | None:
    """What is wrong with ``value`` as a value of SweepSpec field ``name``, or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return "must be an integer" if integer else "must be a number"
    if not abs(value) <= sys.float_info.max:
        return "is non-finite"
    if name == "n_spins" and not 2 <= value <= MAX_SPINS:
        return f"must be in 2..{MAX_SPINS}"
    if name in ("n_coupling_sets", "n_disorder_samples", "coupling_sigma_hz", "tau") and not value > 0:
        return "must be positive"
    if name in ("disorder_sigma_hz", "pulse_width", "transient", "base_seed") and value < 0:
        return "must be nonnegative"
    if _angle_overflows(name, value):
        return "overflows its rotation angle"
    return None


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter fidelity sweep over a seeded ensemble.

    ``parameter`` names the swept field; all other error/system fields hold
    their configured values.  ``transient`` sets symmetric edge transients
    (alpha_l = alpha_tr).  The ensemble crosses ``n_coupling_sets`` coupling
    draws with ``n_disorder_samples`` disorder draws.

    The spec checks its own fields, one rule per field (:func:`_field_problem`;
    the grid values take the swept field's rule), and raises
    :class:`ConfigError` listing every broken rule.  Every Philox key the
    ensemble draws must stay below 2**128, the grid must increase strictly,
    and each pulse must fit its window (:func:`spinweave.sequences.schedule`)
    at each (tau, pulse_width) of the sweep.
    Sequence names are normalized to upper case.
    """

    parameter: str
    grid: tuple[float, ...]
    sequences: tuple[str, ...] = BUILTIN_NAMES
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
        errors, invalid = [], set()
        if self.parameter not in SWEEPABLE_PARAMETERS:
            errors.append(f"parameter must name a sweep parameter {SWEEPABLE_PARAMETERS}, got {self.parameter!r}")
        sequences = self.sequences
        if not isinstance(sequences, (list, tuple)) or not sequences or not all(
            isinstance(s, str) and s.upper() in BUILTIN_NAMES for s in sequences
        ):
            errors.append(f"sequences must be a nonempty list of {BUILTIN_NAMES}, got {sequences!r}")
        else:
            object.__setattr__(self, "sequences", tuple(s.upper() for s in sequences))
        for f in dataclasses.fields(self)[3:]:  # the numeric fields, after parameter, grid and sequences
            value = getattr(self, f.name)
            if problem := _field_problem(f.name, value, isinstance(f.default, int)):
                errors.append(f"{f.name} {problem}, got {value!r}")
                invalid.add(f.name)
            else:
                object.__setattr__(self, f.name, type(f.default)(value))
        if not invalid & {"base_seed", "n_coupling_sets", "n_disorder_samples"}:
            # the last key of the coupling stream or of the disorder stream
            last_key = self.base_seed + max(self.n_coupling_sets, DISORDER_SEED_OFFSET + self.n_disorder_samples) - 1
            if last_key >= 2**128:
                errors.append(f"base_seed plus the ensemble's seed offsets must stay below 2**128, got {self.base_seed!r}")
        grid = self.grid
        if not isinstance(grid, (list, tuple, np.ndarray)):
            errors.append(f"grid must be a list of numbers, got {grid!r}")
        elif len(grid) == 0:
            errors.append("grid is empty")
        elif self.parameter in SWEEPABLE_PARAMETERS:
            rule = (_field_problem(self.parameter, v, False) for v in grid)
            problems = [f"{self.parameter} grid value {p}, got {v!r}" for v, p in zip(grid, rule) if p]
            if not problems:
                object.__setattr__(self, "grid", grid := tuple(float(v) for v in grid))
                if any(b <= a for a, b in zip(grid, grid[1:])):
                    problems.append("grid must be strictly increasing")
            errors += problems
        if not errors:
            taus = self.grid if self.parameter == "tau" else (self.tau,)
            widths = self.grid if self.parameter == "pulse_width" else (self.pulse_width,)
            for name in self.sequences:
                try:
                    for tau, width in ((t, w) for t in taus for w in widths if w > 0):  # a delta pulse fits
                        schedule(builtin(name), tau, width)
                except ValueError as exc:
                    errors.append(f"pulse_width does not fit its window: {exc}")
        if errors:
            raise ConfigError(errors)


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
    platform reports one, else ``os.cpu_count()``.  A set ``SPINWEAVE_THREADS``
    that is not an integer of at least 1 raises ``ValueError`` naming it, and
    so does an explicit ``threads`` that is not an int of at least 1.
    """
    if threads is not None:
        if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
            raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
        return int(threads)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _ensemble_infidelities(spec: SweepSpec, threads: int | None = None) -> np.ndarray:
    """``1 - F`` of every (grid value, sequence, member), shape (G, S, members).

    A task is one chunk of ``max(1, 2**16 // d**2)`` consecutive members,
    a constant of the spin count, and the grid values that share its
    members and error model: every value of a ``tau`` sweep, one value of
    any other.  It draws each of the chunk's coupling sets and disorder
    rows once, stacks them into the (B, n, n) couplings and (B, n) total
    offsets of one :class:`_CycleKernel`, which every sequence and value
    of the task shares; the kernel keeps the free steps of one tau at a
    time.  Members are ordered coupling set major, disorder sample minor.
    """
    sequences = [builtin(name) for name in spec.sequences]
    members = [(s, d) for s in range(spec.n_coupling_sets) for d in range(spec.n_disorder_samples)]
    results = np.zeros((len(spec.grid), len(sequences), len(members)))
    chunk = max(1, 2**16 // (1 << spec.n_spins) ** 2)
    grids = [range(len(spec.grid))] if spec.parameter == "tau" else [[i] for i in range(len(spec.grid))]
    tasks = [(grid, start) for grid in grids for start in range(0, len(members), chunk)]

    def run(task):
        grid, start = task
        # the swept fields at each grid point of the task, read without re-checking the
        # spec; they differ in tau alone, so the first sets the members and error model
        fields = {name: getattr(spec, name) for name in SWEEPABLE_PARAMETERS}
        points = [{**fields, spec.parameter: spec.grid[i]} for i in grid]
        point, task_members = points[0], members[start : start + chunk]
        n, sigma = spec.n_spins, point["disorder_sigma_hz"]
        couplings = {s: sample_couplings(spec.base_seed + s, n, spec.coupling_sigma_hz) for s in {s for s, _ in task_members}}
        disorder = {
            d: sample_disorder(spec.base_seed + DISORDER_SEED_OFFSET + d, n, sigma) if sigma > 0.0 else np.zeros(n)
            for d in {d for _, d in task_members}
        }
        offsets = np.stack([disorder[d] for _, d in task_members]) + point["global_offset_hz"]
        error = ErrorModel.symmetric_transients(point["transient"], point["pulse_width"], point["rotation_error"])
        kernel = _CycleKernel(np.stack([couplings[s] for s, _ in task_members]), offsets, error)
        for i, point in zip(grid, points):
            for j, seq in enumerate(sequences):
                results[i, j, start : start + len(task_members)] = 1.0 - _eigenphase_fidelity(
                    kernel.cycles(seq, point["tau"]), seq.cycle_windows
                )

    # the calling thread drains the queue alongside threads - 1 helpers, each up to
    # a None of its own; a pool starts a thread per submit, so one thread starts none
    threads = min(resolve_threads(threads), len(tasks))
    pending = queue.SimpleQueue()
    for task in tasks + [None] * threads:
        pending.put(task)

    def drain():
        for task in iter(pending.get, None):
            run(task)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for future in futures:
            future.result()
    return results


def ensemble_fidelity(spec: SweepSpec, threads: int | None = None) -> list[SweepRow]:
    """Mean infidelity per (grid value, sequence) over the seeded ensemble.

    Members are propagated in stacks: a task is one chunk of
    ``max(1, 2**16 // d**2)`` consecutive members (256 at 4 spins, 16 at
    6, 1 at 8 and above) times the grid values that share it, every value
    of a ``tau`` sweep and one value of any other.  Every sequence and
    value of a task shares its H_int factorization, and the finite-pulse
    windows ``P_0 F_a`` of one tau at a time; for ideal, offset-free
    members it is the real factorization of ``H_D^(x,y,z)`` on the parity
    blocks instead (:func:`cycle_unitary`), whose fidelities are solved on
    the same blocks.  Each member's ``1 - F`` equals
    ``1 - fidelity(cycle_unitary(system, ...), m)`` bit for bit, on either
    path.

    Deterministic for a fixed ``base_seed``: chunks are fixed by member
    index, never by thread count, and the mean/stddev reductions are
    performed on the assembled per-member array, so the thread count never
    changes the output.
    """
    results = _ensemble_infidelities(spec, threads)
    return [
        SweepRow(spec.parameter, value, name, float(np.mean(results[i, j])), float(np.std(results[i, j])), results.shape[-1])
        for i, value in enumerate(spec.grid)
        for j, name in enumerate(spec.sequences)
    ]

