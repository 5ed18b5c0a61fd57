"""Dense complex operator algebra on small spin-1/2 Hilbert spaces.

Conventions used throughout the package:

* Hamiltonians are Hermitian matrices in angular-frequency units (rad/s),
  with hbar = 1.  User-facing frequencies are given in Hz and multiplied by
  2*pi at module boundaries.
* Propagators are unitary and dimensionless; evolution under a Hamiltonian
  ``h`` for time ``t`` is ``exp(-i h t)``.
* Everything is dense ``complex128``.  Dimensions are powers of two up to
  ``2**MAX_SPINS``; exponentials of general Hamiltonians and unitary roots
  go through exact eigendecompositions, which at these sizes is both
  precise and cheap, and lets a single factorization serve repeated
  evolution times.  Ideal collective RF rotations factor over the spins
  and are built in closed form by :func:`spinweave.spins.collective_rotation`.
* Cycle propagation does not use :class:`HermitianPropagator` for the
  internal Hamiltonian: that Hamiltonian conserves total S_z, so
  :class:`spinweave.control.FreeEvolution` factors it one magnetization
  sector at a time, and delta pulses are applied as Kronecker factors.
  :class:`HermitianPropagator` serves the generators that mix sectors or
  are not ``H_int``: the double-quantum Hamiltonian, finite-width pulses
  and the truncated Magnus sums behind ``nth_order_fidelity``.
"""

from __future__ import annotations

import warnings

import numpy as np
import numpy.typing as npt
import scipy.linalg

Operator = npt.NDArray[np.complex128]

MAX_SPINS = 10
MAX_DIM = 2**MAX_SPINS

__all__ = [
    "Operator",
    "MAX_SPINS",
    "MAX_DIM",
    "BranchCutWarning",
    "as_operator",
    "commutator",
    "dagger",
    "hermiticity_defect",
    "unitarity_defect",
    "require_hermitian",
    "require_unitary",
    "expm_hermitian",
    "HermitianPropagator",
    "principal_eigenphases",
    "unitary_root",
    "frobenius_magnitude",
    "spectral_norm",
]


class BranchCutWarning(UserWarning):
    """A unitary eigenphase lies within tolerance of the +/-pi branch cut."""


def as_operator(a: npt.ArrayLike) -> Operator:
    """Coerce ``a`` to a square complex matrix on a power-of-two dimension."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    if dim < 1 or dim > MAX_DIM or (dim & (dim - 1)) != 0:
        raise ValueError(
            f"operator dimension must be a power of two <= {MAX_DIM}, got {dim}"
        )
    return m


def commutator(a: npt.ArrayLike, b: npt.ArrayLike) -> Operator:
    return np.asarray(a) @ np.asarray(b) - np.asarray(b) @ np.asarray(a)


def dagger(a: npt.ArrayLike) -> Operator:
    """Conjugate transpose of a matrix, or of each member of a (B, d, d) stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def hermiticity_defect(h: npt.ArrayLike) -> float:
    """Relative Frobenius-norm asymmetry ``|h - h^dag| / |h|`` (0 for h = 0)."""
    h = np.asarray(h)
    scale = np.linalg.norm(h)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(h - h.conj().T) / scale)


def unitarity_defect(u: npt.ArrayLike) -> float:
    """Frobenius norm of ``u^dag u - I`` normalized by ``sqrt(dim)``."""
    u = np.asarray(u)
    dim = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(dim)) / np.sqrt(dim))


def require_hermitian(h: npt.ArrayLike, tol: float = 1e-10) -> Operator:
    h = as_operator(h)
    defect = hermiticity_defect(h)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (relative asymmetry {defect:.3e})")
    return h


def require_unitary(u: npt.ArrayLike, tol: float = 1e-10) -> Operator:
    u = as_operator(u)
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def expm_hermitian(h: npt.ArrayLike, t: float) -> Operator:
    """Unitary propagator ``exp(-i h t)`` of a Hermitian generator.

    Computed by eigendecomposition of ``h``, so the result is exact up to
    roundoff for any ``t``.  Inputs with relative asymmetry above 1e-10 are
    rejected.  ``h`` may be a (B, d, d) stack; each member is checked and
    propagated on its own.
    """
    return HermitianPropagator(h).at(t)


class HermitianPropagator:
    """Factory for ``exp(-i h t)`` reusing a single eigendecomposition of ``h``.

    Useful when the same Hamiltonian generates propagators for many delays.
    ``h`` is one matrix or a (B, d, d) stack, factored by one batched
    ``eigh`` after a member-by-member Hermiticity check.
    """

    def __init__(self, h: npt.ArrayLike, tol: float = 1e-10):
        h = np.asarray(h, dtype=np.complex128)
        for member in h.reshape(-1, *h.shape[-2:]):
            require_hermitian(member, tol)
        # eigh of the Hermitian average removes the O(tol) asymmetry
        self._w, self._v = np.linalg.eigh((h + dagger(h)) / 2.0)

    @property
    def eigenvalues(self) -> npt.NDArray[np.float64]:
        return self._w

    def at(self, t: float) -> Operator:
        phases = np.exp(-1j * self._w * t)
        return (self._v * phases[..., None, :]) @ dagger(self._v)


def principal_eigenphases(
    eigenvalues: npt.ArrayLike, m: int, branch_tol: float = 1e-9, stacklevel: int = 2
) -> npt.NDArray[np.float64]:
    """Eigenphases ``theta`` in ``(-pi, pi]`` of unit-modulus eigenvalues, for an ``m``-th root.

    The principal ``m``-th root maps ``exp(i theta)`` to ``exp(i theta / m)``;
    ``m`` must be a positive integer.  For ``m > 1`` eigenphases within
    ``branch_tol`` of the branch cut at ``pi`` are ambiguous; they take the
    ``theta = pi`` convention and are reported through a
    :class:`BranchCutWarning`, with ``stacklevel`` counted from the caller
    as :func:`warnings.warn` counts it.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"root order must be a positive integer, got {m}")
    theta = np.angle(eigenvalues)
    theta[theta <= -np.pi] = np.pi
    if m > 1:
        near_cut = np.abs(np.pi - np.abs(theta)) < branch_tol
        if np.any(near_cut):
            warnings.warn(
                f"{int(near_cut.sum())} eigenphase(s) within {branch_tol:g} of the "
                "branch cut at pi; principal root may be discontinuous here",
                BranchCutWarning,
                stacklevel=stacklevel + 1,
            )
    return theta


def unitary_root(u: npt.ArrayLike, m: int, branch_tol: float = 1e-9) -> Operator:
    """Principal ``m``-th root of a unitary matrix.

    Each eigenvalue ``exp(i theta)`` with ``theta`` in ``(-pi, pi]`` maps to
    ``exp(i theta / m)`` (:func:`principal_eigenphases`).  The eigenbasis
    comes from a complex Schur decomposition: for a unitary (normal) input
    the Schur factor is diagonal up to roundoff, and its basis is exactly
    unitary, which keeps reconstruction errors at machine level even for
    high matrix powers.
    """
    u = require_unitary(u)
    if m == 1:
        return u.copy()
    t, q = scipy.linalg.schur(u, output="complex")
    diag = np.diag(t).copy()
    offdiag = np.linalg.norm(t - np.diag(diag)) / np.sqrt(u.shape[0])
    if offdiag > 1e-7:
        raise ValueError(
            f"Schur factor of claimed-unitary input is not diagonal (residual {offdiag:.3e})"
        )
    theta = principal_eigenphases(diag, m, branch_tol)
    return (q * np.exp(1j * theta / m)) @ q.conj().T


def frobenius_magnitude(h: npt.ArrayLike) -> float:
    """``sqrt(Tr(h^dag h))``, the Frobenius size measure used for Hamiltonian terms.

    For Hermitian ``h`` this equals ``sqrt(Tr(h h))``.  Callers comparing
    effective-Hamiltonian terms normalize by the same measure of the bare
    dipolar Hamiltonian.
    """
    return float(np.linalg.norm(np.asarray(h)))


def spectral_norm(h: npt.ArrayLike) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    h = require_hermitian(h)
    if h.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(np.max(np.abs(w))) if w.size else 0.0
