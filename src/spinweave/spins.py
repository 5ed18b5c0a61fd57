"""Spin systems and their Hamiltonians.

A :class:`SpinSystem` bundles pairwise dipolar couplings, per-spin chemical
shifts, per-spin disorder fields and a global resonance offset, all in Hz.
Hamiltonian builders return dense matrices in rad/s on the 2**N product
space with the ``|up> = (1, 0)`` single-spin convention and ``S = sigma/2``.

Matrix elements are assembled directly from basis-state bit patterns (spin
``i`` occupies bit ``n - 1 - i``, so spin 0 is the leftmost tensor factor);
the Kronecker-product route is kept only as ``embedded_spin`` for embedding
arbitrary single-site operators and for cross-checks, and as
``kron_power`` behind ``collective_rotation``, which makes every ideal
collective RF pulse.

The internal Hamiltonian (secular dipolar plus z offsets) conserves total
S_z, so it is block-diagonal once the basis is sorted by magnetization
sector; :func:`magnetization_sectors` gives that ordering and the row span
of each sector.  Its matrix elements are placed from per-N pair tables
(the ZZ diagonal products and the flip-flop index pairs), cached beside
the sector layout, so a stack of members is built in a few array
operations (:func:`internal_hamiltonian_stack`), and so is
:func:`dq_hamiltonian`, block-diagonal by :func:`parity_sectors`.

Random ensembles use the counter-based Philox generator keyed directly by
the user seed, so samples are reproducible bit-for-bit across runs and
platforms for a fixed NumPy version.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .operators import MAX_SPINS, Operator, SectorLayout

__all__ = [
    "SIGMA",
    "SPIN_HALF",
    "DEFAULT_COUPLING_SIGMA_HZ",
    "SpinSystem",
    "spin_operator",
    "embedded_spin",
    "collective_operator",
    "collective_phase_operator",
    "collective_rotation",
    "magnetization",
    "kron_power",
    "SectorLayout",
    "magnetization_sectors",
    "parity_sectors",
    "dipolar_hamiltonian",
    "offset_hamiltonian",
    "internal_hamiltonian",
    "internal_hamiltonian_stack",
    "dq_hamiltonian",
    "sample_couplings",
    "sample_disorder",
]

TWO_PI = 2.0 * np.pi

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
SPIN_HALF = {axis: m / 2.0 for axis, m in SIGMA.items()}

# sigma chosen so that 3*sigma = 5000 Hz, the default maximum coupling scale
DEFAULT_COUPLING_SIGMA_HZ = 5000.0 / 3.0


def _bit_table(n_spins: int) -> npt.NDArray[np.int64]:
    """(dim, n) array of basis-state bits; bit 0 means spin up (m = +1/2)."""
    states = np.arange(1 << n_spins, dtype=np.int64)
    shifts = n_spins - 1 - np.arange(n_spins)
    return (states[:, None] >> shifts[None, :]) & 1


def spin_operator(axis: str) -> Operator:
    """Single-spin operator ``S_axis = sigma_axis / 2``."""
    if axis not in SPIN_HALF:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return SPIN_HALF[axis].copy()


def embedded_spin(n_spins: int, site: int, axis: str) -> Operator:
    """``S_axis`` of one spin embedded in the ``n_spins`` product space."""
    if not 0 <= site < n_spins:
        raise ValueError(f"site {site} outside 0..{n_spins - 1}")
    op = np.eye(1, dtype=np.complex128)
    for k in range(n_spins):
        op = np.kron(op, spin_operator(axis) if k == site else np.eye(2))
    return op


def _flip_sum(n_spins: int, up: complex, down: complex) -> Operator:
    """``sum_i o_i``, in one scatter, for the one-spin flip operator ``o``.

    ``<down|o|up> = up`` and ``<up|o|down> = down``.
    """
    dim = 1 << n_spins
    states = np.arange(dim)[:, None]
    out = np.zeros((dim, dim), dtype=np.complex128)
    flipped = states ^ (1 << (n_spins - 1 - np.arange(n_spins)))
    out[flipped, states] = np.where(_bit_table(n_spins) == 0, up, down)
    return out


def collective_operator(n_spins: int, axis: str) -> Operator:
    """Collective spin operator ``sum_i S_axis^i`` on ``n_spins`` spins."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    if axis not in SPIN_HALF:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if axis == "z":
        return np.diag(magnetization(n_spins)).astype(np.complex128)
    # <down|S_y|up> = +i/2, <up|S_y|down> = -i/2 (a +0.0 real part, unlike -0.5j)
    up, down = (0.5, 0.5) if axis == "x" else (0.5j, complex(0.0, -0.5))
    return _flip_sum(n_spins, up, down)


def collective_phase_operator(n_spins: int, phase_deg: float) -> Operator:
    """Collective in-plane spin operator ``cos(phi) Sx + sin(phi) Sy``.

    Flipping a spin up to down gives the element ``exp(i phi) / 2``, and
    down to up ``exp(-i phi) / 2``.
    """
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    phi = np.deg2rad(phase_deg)
    c, s = 0.5 * np.cos(phi), 0.5 * np.sin(phi)
    return _flip_sum(n_spins, complex(c, s), complex(c, -s))


def collective_rotation(n_spins: int, phase_deg: float, angle: float) -> Operator:
    """Ideal collective RF rotation ``exp(-i angle S_phi)`` on ``n_spins`` spins.

    ``S_phi = cos(phi) Sx + sin(phi) Sy`` is a sum of commuting single-spin
    terms, so the rotation is exactly ``r^{(x) n_spins}`` with the closed-form
    single-spin ``r = cos(angle/2) I - 2i sin(angle/2) s_phi``.
    """
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    phi = np.deg2rad(phase_deg)
    s_phi = np.cos(phi) * SPIN_HALF["x"] + np.sin(phi) * SPIN_HALF["y"]
    r = np.cos(angle / 2) * np.eye(2) - 2j * np.sin(angle / 2) * s_phi
    return kron_power(r, n_spins)


def kron_power(op: Operator, n: int) -> Operator:
    """``op^{(x)n}``, equal element by element to repeated ``np.kron``.

    The broadcast outer product avoids ``np.kron``'s per-call overhead,
    which dominates at the 2x2 sizes pulses are built from.
    """
    u = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        u = (u[:, None, :, None] * op[None, :, None, :]).reshape(len(u) * len(op), -1)
    return u


@functools.cache
def magnetization(n_spins: int) -> npt.NDArray[np.float64]:
    """Total S_z of each basis state, ``n/2`` minus its down spins (read-only, built once per n)."""
    m = n_spins / 2 - _bit_table(n_spins).sum(axis=1)
    m.flags.writeable = False
    return m


def _sector_layout(n_spins: int, modulus: int) -> SectorLayout:
    """Read-only layout of the states by number of down spins modulo ``modulus``, each in basis order."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    sector = _bit_table(n_spins).sum(axis=1) % modulus
    order = np.argsort(sector, kind="stable")
    inverse = np.argsort(order)
    edges = np.concatenate(([0], np.cumsum(np.bincount(sector))))
    for arr in (order, inverse):
        arr.flags.writeable = False
    spans = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
    return SectorLayout(order=order, inverse=inverse, spans=spans)


@functools.cache
def magnetization_sectors(n_spins: int) -> SectorLayout:
    """Sector layout of the ``n_spins`` product space by total magnetization (built once per n).

    Span ``k`` holds the ``C(n, k)`` states with ``k`` down spins
    (``S_z = n/2 - k``).  An operator commuting with total S_z, such as
    ``H_D + H_offset``, is block-diagonal over ``spans`` after
    ``a[np.ix_(order, order)]``.
    """
    return _sector_layout(n_spins, n_spins + 1)


@functools.cache
def parity_sectors(n_spins: int) -> SectorLayout:
    """Layout by the parity of the number of down spins: even states, then odd (built once per n).

    ``H_DQ`` changes the number of down spins by two, so it is
    block-diagonal over these two spans.
    """
    return _sector_layout(n_spins, 2)


@dataclass(frozen=True)
class SpinSystem:
    """N coupled spins-1/2 with offsets, all input frequencies in Hz.

    Attributes:
        n_spins: number of spins, 2..10.
        couplings_hz: symmetric (n, n) dipolar coupling matrix, zero diagonal.
        chemical_shifts_hz: per-spin chemical shifts delta_i.
        disorder_hz: per-spin local disorder fields h_i.
        global_offset_hz: resonance offset applied to every spin.
    """

    n_spins: int
    couplings_hz: np.ndarray
    chemical_shifts_hz: np.ndarray
    disorder_hz: np.ndarray
    global_offset_hz: float = 0.0

    def __post_init__(self):
        n = self.n_spins
        if not 2 <= n <= MAX_SPINS:
            raise ValueError(f"n_spins must be in 2..{MAX_SPINS}, got {n}")
        d = np.array(self.couplings_hz, dtype=np.float64)
        if d.shape != (n, n):
            raise ValueError(f"couplings must have shape ({n}, {n}), got {d.shape}")
        scale = np.abs(d).max()
        if not scale < np.inf:
            raise ValueError("couplings_hz must be finite")
        if not np.abs(d - d.T).max() <= 1e-9 * max(1.0, scale):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("coupling matrix must have zero diagonal")
        d = (d + d.T) / 2.0
        shifts = np.array(self.chemical_shifts_hz, dtype=np.float64)
        disorder = np.array(self.disorder_hz, dtype=np.float64)
        for name, arr in (("chemical_shifts_hz", shifts), ("disorder_hz", disorder)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        offset = float(self.global_offset_hz)
        if not math.isfinite(offset):
            raise ValueError(f"global_offset_hz must be finite, got {offset!r}")
        for arr in (d, shifts, disorder):
            arr.flags.writeable = False
        object.__setattr__(self, "couplings_hz", d)
        object.__setattr__(self, "chemical_shifts_hz", shifts)
        object.__setattr__(self, "disorder_hz", disorder)
        object.__setattr__(self, "global_offset_hz", offset)

    @classmethod
    def create(
        cls,
        couplings_hz: npt.ArrayLike,
        chemical_shifts_hz: npt.ArrayLike | None = None,
        disorder_hz: npt.ArrayLike | None = None,
        global_offset_hz: float = 0.0,
    ) -> "SpinSystem":
        """Build a system from a coupling matrix, defaulting offsets to zero."""
        d = np.asarray(couplings_hz, dtype=np.float64)
        n = d.shape[0]
        zeros = np.zeros(n)
        return cls(
            n_spins=n,
            couplings_hz=d,
            chemical_shifts_hz=zeros if chemical_shifts_hz is None else chemical_shifts_hz,
            disorder_hz=zeros if disorder_hz is None else disorder_hz,
            global_offset_hz=global_offset_hz,
        )

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def total_offsets_hz(self) -> np.ndarray:
        """Per-spin a_i = delta_i + h_i + global offset, in Hz."""
        return self.chemical_shifts_hz + self.disorder_hz + self.global_offset_hz


@dataclass(frozen=True)
class _PairTables:
    """Index tables that place every pair and one-spin term of the ``n``-spin space.

    Attributes:
        pairs: ``(i, j)`` index arrays of the pairs ``i < j``, row-major.
        diagonal: ``(n_pairs + n, dim)`` rows: ``2 m_i m_j`` of each pair,
            then ``m_i`` of each spin; coefficients times rows, summed, give
            the diagonal of ``H_D + H_offset``.
        flip_rows, flip_cols, flip_pair: the flip-flop elements, one per
            pair and state whose two spins differ: ``h[row, col]`` takes
            ``-d/2`` of pair ``flip_pair``.  ``dq_*``: the double-quantum
            elements, where the two spins are equal.  No two pairs share
            an element.
    """

    pairs: tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]
    diagonal: npt.NDArray[np.float64]
    flip_rows: npt.NDArray[np.intp]
    flip_cols: npt.NDArray[np.intp]
    flip_pair: npt.NDArray[np.intp]
    dq_rows: npt.NDArray[np.intp]
    dq_cols: npt.NDArray[np.intp]
    dq_pair: npt.NDArray[np.intp]


@functools.cache
def _pair_tables(n_spins: int) -> _PairTables:
    bits = _bit_table(n_spins)
    m_values = 0.5 - bits
    i, j = np.triu_indices(n_spins, k=1)
    diagonal = np.concatenate([2.0 * m_values[:, i] * m_values[:, j], m_values], axis=1).T.copy()
    masks = (1 << (n_spins - 1 - i)) | (1 << (n_spins - 1 - j))
    elements = []
    for equal in (False, True):  # flip-flop elements, then double-quantum ones
        states, pair = np.nonzero((bits[:, i] == bits[:, j]) == equal)
        elements += [states ^ masks[pair], states, pair]
    for arr in (i, j, diagonal, *elements):
        arr.flags.writeable = False
    return _PairTables((i, j), diagonal, *elements)


def _hamiltonian_stack(couplings_hz: np.ndarray, offsets_hz: np.ndarray) -> np.ndarray:
    """``H_D + sum_i a_i S_z^i`` in rad/s for (B, n, n) couplings and (B, n) offsets."""
    batch, n = offsets_hz.shape
    tables = _pair_tables(n)
    dim = 1 << n
    d = TWO_PI * couplings_hz[:, tables.pairs[0], tables.pairs[1]]
    coefficients = np.concatenate([d, TWO_PI * offsets_hz], axis=1)
    h = np.zeros((batch, dim, dim), dtype=np.complex128)
    h[:, tables.flip_rows, tables.flip_cols] = -0.5 * d[:, tables.flip_pair]
    states = np.arange(dim)
    h[:, states, states] = (coefficients[:, :, None] * tables.diagonal).sum(axis=1)
    return h


def dipolar_hamiltonian(system: SpinSystem) -> Operator:
    """Secular dipolar Hamiltonian in rad/s.

    ``H_D = sum_{i<j} d_ij (3 S_z^i S_z^j - S^i . S^j)``, i.e. per pair
    ``d_ij (2 S_z^i S_z^j - (S_+^i S_-^j + S_-^i S_+^j)/2)``.  Traceless and
    commuting with the total z magnetization.
    """
    return _hamiltonian_stack(system.couplings_hz[None], np.zeros((1, system.n_spins)))[0]


def offset_hamiltonian(system: SpinSystem) -> Operator:
    """Diagonal offset Hamiltonian ``sum_i a_i S_z^i`` in rad/s."""
    n = system.n_spins
    return _hamiltonian_stack(np.zeros((1, n, n)), system.total_offsets_hz[None])[0]


def internal_hamiltonian(system: SpinSystem) -> Operator:
    """Full internal Hamiltonian ``H_D + H_offset`` in rad/s."""
    return internal_hamiltonian_stack([system])[0]


def internal_hamiltonian_stack(systems: Sequence[SpinSystem]) -> np.ndarray:
    """``H_D + H_offset`` of each system, as a (B, d, d) stack in rad/s.

    Member ``k`` equals ``internal_hamiltonian(systems[k])`` bit for bit:
    both are built from the same cached pair tables.
    """
    n = systems[0].n_spins
    if any(s.n_spins != n for s in systems):
        raise ValueError("a Hamiltonian stack needs systems of one spin count")
    return _hamiltonian_stack(
        np.stack([s.couplings_hz for s in systems]),
        np.stack([s.total_offsets_hz for s in systems]),
    )


def dq_hamiltonian(system: SpinSystem) -> Operator:
    """Double-quantum Hamiltonian in rad/s.

    ``H_DQ = (1/2) sum_{j<k} J_jk (S_x^j S_x^k - S_y^j S_y^k)``; connects
    basis states differing by two units of total z magnetization.  ``J``
    is the system's dipolar coupling matrix.
    """
    tables = _pair_tables(system.n_spins)
    values = TWO_PI * system.couplings_hz[tables.pairs] / 4.0
    h = np.zeros((system.dim, system.dim), dtype=np.complex128)
    h[tables.dq_rows, tables.dq_cols] = values[tables.dq_pair]
    return h


def _philox(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(key=seed))


def sample_couplings(seed: int, n_spins: int, sigma_hz: float = DEFAULT_COUPLING_SIGMA_HZ) -> np.ndarray:
    """Symmetric coupling matrix with i.i.d. ``N(0, sigma^2)`` upper triangle.

    Entries fill the upper triangle row-major; the draw is a pure function
    of ``seed``.
    """
    if not 0 < sigma_hz < np.inf:
        raise ValueError(f"sigma_hz must be positive and finite, got {sigma_hz!r}")
    draws = _philox(seed).normal(0.0, sigma_hz, size=n_spins * (n_spins - 1) // 2)
    d = np.zeros((n_spins, n_spins))
    d[np.triu_indices(n_spins, k=1)] = draws
    return d + d.T


def sample_disorder(seed: int, n_spins: int, sigma_hz: float) -> np.ndarray:
    """Per-spin disorder fields ``h_i ~ N(0, sigma_h^2)``, reproducible from seed.

    The unit draw depends only on ``seed``, so sweeping ``sigma_hz`` rescales
    one fixed sample instead of resampling.
    """
    if not 0 <= sigma_hz < np.inf:
        raise ValueError(f"sigma_hz must be nonnegative and finite, got {sigma_hz!r}")
    return sigma_hz * _philox(seed).normal(0.0, 1.0, size=n_spins)
