"""Independent dense reference for one sweep member.

Builds the internal Hamiltonian from Kronecker products of Pauli
matrices, propagates every step of ``spinweave.sequences.schedule`` with
``scipy.linalg.expm`` and takes the fidelity from ``scipy.linalg.eigvals``.
It shares no propagation or fidelity code with spinweave, so agreement
with the package's sweep rows checks the package's numbers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi

# Agreement tolerance on 1 - F: the absolute floor lets roundoff-level
# changes (below ~1e-13) pass; the relative part covers larger values.
ATOL = 1e-12
RTOL = 1e-9

_SPIN = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex) / 2,
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex) / 2,
    "z": np.array([[1, 0], [0, -1]], dtype=complex) / 2,
}


def _product(n: int, factors: dict) -> np.ndarray:
    """Kronecker product with ``factors[k]`` at site k and identity elsewhere."""
    op = np.eye(1, dtype=complex)
    for k in range(n):
        op = np.kron(op, factors.get(k, np.eye(2)))
    return op


def internal_hamiltonian(couplings_hz: np.ndarray, offsets_hz: np.ndarray) -> np.ndarray:
    """``sum_{i<j} d_ij (3 Sz_i Sz_j - S_i.S_j) + sum_i a_i Sz_i`` in rad/s."""
    n = len(offsets_hz)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n):
        h += TWO_PI * offsets_hz[i] * _product(n, {i: _SPIN["z"]})
        for j in range(i + 1, n):
            pair = {a: _product(n, {i: _SPIN[a], j: _SPIN[a]}) for a in "xyz"}
            dot = pair["x"] + pair["y"] + pair["z"]
            h += TWO_PI * couplings_hz[i, j] * (3 * pair["z"] - dot)
    return h


def collective(n: int, axis: str) -> np.ndarray:
    return sum(_product(n, {i: _SPIN[axis]}) for i in range(n))


def pulse(n: int, phase_deg: float, error, h_int: np.ndarray) -> np.ndarray:
    """One nominal pi/2 pulse under ``error`` (a ``spinweave.ErrorModel``)."""
    phi = np.deg2rad(phase_deg)
    sx, sy = collective(n, "x"), collective(n, "y")
    s_phi = np.cos(phi) * sx + np.sin(phi) * sy
    s_trans = -np.sin(phi) * sx + np.cos(phi) * sy
    angle = (np.pi / 2) * (1.0 + error.rotation_error)
    if error.pulse_width == 0.0:
        u = scipy.linalg.expm(-1j * angle * s_phi)
    else:
        omega1 = (np.pi / 2) / error.pulse_width
        gen = h_int + omega1 * (1.0 + error.rotation_error) * s_phi
        u = scipy.linalg.expm(-1j * error.pulse_width * gen)
    if error.transient_leading:
        u = u @ scipy.linalg.expm(-1j * (np.pi / 2) * error.transient_leading * s_trans)
    if error.transient_trailing:
        u = scipy.linalg.expm(-1j * (np.pi / 2) * error.transient_trailing * s_trans) @ u
    return u


def cycle(steps, n: int, error, h_int: np.ndarray) -> np.ndarray:
    """Product of the schedule steps, each step exponentiated once."""
    cache: dict[tuple, np.ndarray] = {}
    u = np.eye(1 << n, dtype=complex)
    for step in steps:
        if step not in cache:
            kind, value = step
            cache[step] = (
                scipy.linalg.expm(-1j * value * h_int)
                if kind == "free"
                else pulse(n, value, error, h_int)
            )
        u = cache[step] @ u
    return u


def infidelity(u: np.ndarray, m: int) -> float:
    """``1 - |sum_k exp(i theta_k / m)| / dim`` over the eigenphases of ``u``."""
    theta = np.angle(scipy.linalg.eigvals(u))
    theta[theta <= -np.pi] = np.pi
    return 1.0 - min(abs(np.exp(1j * theta / m).sum()) / u.shape[0], 1.0)


def kick(n: int, angle: float = 1e-2) -> np.ndarray:
    """A small collective x rotation, the perturbation of the self-test."""
    return scipy.linalg.expm(-1j * angle * collective(n, "x"))


def agrees(package_value: float, reference_value: float) -> bool:
    return abs(package_value - reference_value) <= ATOL + RTOL * abs(reference_value)
