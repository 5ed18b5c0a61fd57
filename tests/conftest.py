import numpy as np
import pytest
from hypothesis import settings

from spinweave.control import _CycleKernel
from spinweave.sequences import FrameMatrix
from spinweave.spins import SpinSystem, embedded_spin

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def random_hermitian(seed: int, dim: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def oracle_phases(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Centred eigenphases ``c`` and centre ``mu`` from the general eigen-solver, independent of the Cayley path.

    The branch rule is that of ``operators._unitary_eigenphases``: ``mu`` is
    the trace phase and ``c = angle(lambda e^{-i mu})``; when some ``|c|``
    exceeds ``2 atan(100)`` the centre moves opposite the middle of the
    widest gap of the phases.  The eigenphases are ``mu + c``, unwrapped.
    """
    lam = np.linalg.eigvals(u)
    mu = float(np.angle(np.trace(u)))
    c = np.angle(lam * np.exp(-1j * mu))
    if np.abs(c).max() > 2.0 * np.arctan(100.0):
        ordered = np.sort(c)
        gaps = np.diff(ordered, append=ordered[0] + 2.0 * np.pi)
        cut = ordered[gaps.argmax()] + gaps.max() / 2.0
        mu = float(np.angle(np.exp(1j * (mu + cut + np.pi))))
        c = np.angle(lam * np.exp(-1j * mu))
    return c, mu


def cycle_kernel(systems: list[SpinSystem], error) -> _CycleKernel:
    """The cycle kernel of these systems' stacked couplings and total offsets."""
    couplings = np.stack([s.couplings_hz for s in systems])
    return _CycleKernel(couplings, np.stack([s.total_offsets_hz for s in systems]), error)


def frame_offset_average(f: FrameMatrix, system: SpinSystem) -> np.ndarray:
    """Zeroth-order average of the offset Hamiltonian implied by the F-matrix.

    Each window contributes its signed toggling-frame axis, so the average is
    ``sum_axis (row_sum_axis / M) * sum_i a_i S_axis^i`` in rad/s.  Exact for
    delta pulses; matches the directly integrated zeroth-order average.
    """
    a = 2.0 * np.pi * system.total_offsets_hz
    n = system.n_spins
    sums = f.row_sums()
    out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for row, axis in enumerate("xyz"):
        if sums[row] == 0:
            continue
        weighted = sum(a[i] * embedded_spin(n, i, axis) for i in range(n))
        out = out + (sums[row] / f.windows) * weighted
    return out


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
