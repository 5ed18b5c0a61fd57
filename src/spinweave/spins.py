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
of each sector.  One builder, ``_pair_stack``, writes every two-spin
operator of the package from cached per-N pair tables (each pair's
``2 m_i m_j`` diagonal, flip-flop and double-quantum elements), with the
factors of ``_PAIR_FACTORS``: ``H_D`` with its axis turned to x, y or z,
and ``H_DQ``, plus z offsets.  So a stack of members is built in a few
array operations (:func:`internal_hamiltonian_stack`), and so are
:func:`dq_hamiltonian`, block-diagonal by :func:`parity_sectors`, and the
toggled ``H_D^(x,y,z)``, whose global-parity blocks
(:class:`_ParityBlocks`) the cycle kernel walks for ideal, offset-free
cycles.

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
            then ``m_i`` of each spin.
        elements: ``(rows, cols, pair)`` of the flip-flop elements, one per
            pair and state whose two spins differ, then of the
            double-quantum elements, where the two spins are equal:
            ``h[rows, cols]`` takes a multiple of the coupling of pair
            ``pair``.  No two pairs share an element.
    """

    pairs: tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]
    diagonal: npt.NDArray[np.float64]
    elements: tuple[tuple[npt.NDArray[np.intp], ...], ...]


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
        elements.append((states ^ masks[pair], states, pair))
    for arr in (i, j, diagonal, *(a for e in elements for a in e)):
        arr.flags.writeable = False
    return _PairTables((i, j), diagonal, tuple(elements))


# Per operator, the factors a pair's coupling d takes on its 2 m_i m_j
# diagonal, flip-flop and double-quantum elements: H_D with its axis
# turned to x, y or z, d (3 S_a^i S_a^j - S^i . S^j), and H_DQ.
_PAIR_FACTORS = {
    "x": (-0.5, 0.25, 0.75),
    "y": (-0.5, 0.25, -0.75),
    "z": (1.0, -0.5, 0.0),
    "dq": (0.0, 0.0, 0.25),
}


def _pair_stack(
    couplings_hz: np.ndarray, factors: tuple[float, float, float], offsets_hz: np.ndarray | None = None, dtype=np.complex128
) -> np.ndarray:
    """The (B, d, d) pair operator of (B, n, n) couplings, plus ``sum_i a_i S_z^i`` of (B, n) offsets, in rad/s.

    ``factors`` is an entry of :data:`_PAIR_FACTORS`.  Every element is
    added to zeros, so a zero coupling leaves +0.0; the diagonal sums its
    pair terms, then its offset terms, in table order.  Every element is
    real, so a ``float64`` stack holds the real parts of the complex one.
    """
    batch, n = couplings_hz.shape[:2]
    tables = _pair_tables(n)
    dim = 1 << n
    d = TWO_PI * couplings_hz[:, tables.pairs[0], tables.pairs[1]]
    # the diagonal factors are powers of two, so scaling each term scales the sum exactly
    coefficients = factors[0] * d
    if offsets_hz is not None:
        coefficients = np.concatenate([coefficients, TWO_PI * offsets_hz], axis=1)
    h = np.zeros((batch, dim, dim), dtype=dtype)
    diagonal = tables.diagonal[: coefficients.shape[1]]
    h.reshape(batch, -1)[:, :: dim + 1] += (coefficients[:, :, None] * diagonal).sum(axis=1)
    for factor, (rows, cols, pair) in zip(factors[1:], tables.elements):
        if factor:
            h[:, rows, cols] += factor * d[:, pair]
    return h


@dataclass(frozen=True)
class _ParityBlocks:
    """Parity blocks of the ``n``-spin space, on which ``H_D^(x,y,z)`` are block-diagonal.

    ``H_D^(a) = sum_{i<j} d_ij (3 S_a^i S_a^j - S^i . S^j)`` commutes with
    ``Z^{(x)n}`` and with ``X^{(x)n}``, which maps state ``s`` to
    ``~s = dim - 1 - s``.  Even n: block ``(sigma, p)``, in the order
    ``(+, 0), (+, 1), (-, 0), (-, 1)``, has the columns
    ``(|s> + sigma |~s>) / sqrt(2)`` over ``s`` in ``states[p]``, the states
    with spin 0 up and ``p`` down spins modulo 2.  Odd n: one block, the
    states with an even number of down spins (``states[0]``); the odd block
    is its image under ``s -> ~s``, with the same matrix.

    Attributes:
        states: (2, k) for even n, (1, k) for odd n.
    """

    states: npt.NDArray[np.intp]

    @property
    def blocks(self) -> int:
        return 4 if len(self.states) == 2 else 1

    def from_standard(self, h: np.ndarray, members: npt.NDArray[np.intp] | None = None) -> np.ndarray:
        """The (B, blocks, k, k) blocks of a (B, d, d) standard-basis stack that commutes with both parities.

        The index inverse of :meth:`to_standard`: block ``(sigma, p)`` is
        ``h[s, t] + sigma h[s, ~t]`` over ``s, t`` in ``states[p]``.  With
        ``members``, only those members of ``h``, gathered without a copy
        of the whole matrices.
        """
        states = self.states
        index = slice(None) if members is None else members[:, None, None, None]
        rows = states[:, :, None]
        same = h[index, rows, states[:, None, :]]
        if len(states) == 1:
            return same
        swapped = h[index, rows, h.shape[-1] - 1 - states[:, None, :]]
        return np.concatenate([same + swapped, same - swapped], axis=1)

    def to_standard(self, blocks: np.ndarray) -> np.ndarray:
        """The (B, d, d) standard-basis operator of a (B, blocks, k, k) block stack."""
        states = self.states
        dim = 2 * states.size
        out = np.zeros((len(blocks), dim, dim), dtype=blocks.dtype)
        if len(states) == 1:
            for rows in (states[0], dim - 1 - states[0]):
                out[:, rows[:, None], rows] = blocks[:, 0]
            return out
        same, swapped = (blocks[:, :2] + blocks[:, 2:]) / 2.0, (blocks[:, :2] - blocks[:, 2:]) / 2.0
        for p, rows in enumerate(states):
            flipped = dim - 1 - rows
            out[:, rows[:, None], rows] = out[:, flipped[:, None], flipped] = same[:, p]
            out[:, rows[:, None], flipped] = out[:, flipped[:, None], rows] = swapped[:, p]
        return out


@functools.cache
def _parity_blocks(n_spins: int) -> _ParityBlocks:
    """The parity blocks of the ``n_spins`` space (built once per n), from the halves of :func:`parity_sectors`."""
    halves = parity_sectors(n_spins).order.reshape(2, -1)
    # each half lists its states in basis order, those with spin 0 up first
    return _ParityBlocks(halves[:1] if n_spins % 2 else halves[:, : halves.shape[1] // 2])


def dipolar_hamiltonian(system: SpinSystem) -> Operator:
    """Secular dipolar Hamiltonian in rad/s.

    ``H_D = sum_{i<j} d_ij (3 S_z^i S_z^j - S^i . S^j)``, i.e. per pair
    ``d_ij (2 S_z^i S_z^j - (S_+^i S_-^j + S_-^i S_+^j)/2)``.  Traceless and
    commuting with the total z magnetization.
    """
    return _pair_stack(system.couplings_hz[None], _PAIR_FACTORS["z"])[0]


def offset_hamiltonian(system: SpinSystem) -> Operator:
    """Diagonal offset Hamiltonian ``sum_i a_i S_z^i`` in rad/s."""
    n = system.n_spins
    return _pair_stack(np.zeros((1, n, n)), _PAIR_FACTORS["z"], system.total_offsets_hz[None])[0]


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
    return _pair_stack(
        np.stack([s.couplings_hz for s in systems]),
        _PAIR_FACTORS["z"],
        np.stack([s.total_offsets_hz for s in systems]),
    )


def dq_hamiltonian(system: SpinSystem) -> Operator:
    """Double-quantum Hamiltonian in rad/s.

    ``H_DQ = (1/2) sum_{j<k} J_jk (S_x^j S_x^k - S_y^j S_y^k)``; connects
    basis states differing by two units of total z magnetization.  ``J``
    is the system's dipolar coupling matrix.
    """
    return _pair_stack(system.couplings_hz[None], _PAIR_FACTORS["dq"])[0]


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
