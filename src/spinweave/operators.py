"""Dense complex operator algebra on small spin-1/2 Hilbert spaces.

Conventions used throughout the package:

* Hamiltonians are Hermitian matrices in angular-frequency units (rad/s),
  with hbar = 1.  User-facing frequencies are given in Hz and multiplied by
  2*pi at module boundaries.
* Propagators are unitary and dimensionless; evolution under a Hamiltonian
  ``h`` for time ``t`` is ``exp(-i h t)``.
* Everything is dense ``complex128``, except that a real (real
  symmetric) generator stays real, so :class:`HermitianPropagator`
  factors it by a real ``eigh``; its propagators are complex.  Dimensions
  are powers of two up to ``2**MAX_SPINS``; exponentials of general
  Hamiltonians and unitary roots go through exact eigendecompositions,
  which at these sizes is both precise and cheap, and lets a single
  factorization serve repeated evolution times.  Ideal collective RF
  rotations factor over the spins and are built in closed form by
  :func:`spinweave.spins.collective_rotation`.
* Eigenphases of unitaries (fidelities and unitary roots) come from one
  Hermitian path: the unitary is turned by the phase of its trace and
  Cayley-transformed to a Hermitian matrix whose eigenvalues are
  ``tan(c / 2)`` of the centred phases ``c``, solved by ``eigvalsh`` or,
  when a root needs the eigenbasis, ``eigh``.  A member with an eigenphase
  near the centred cut is centred once more, with the cut in the largest
  gap of its phases.  That cut is the only branch rule: roots and
  fidelities take ``(centre + c) / m``, never a principal branch, so a
  global phase of the unitary does not move them.
* One class, :class:`HermitianPropagator`, factors every Hermitian
  generator, by blocks when given a :class:`SectorLayout`: the internal
  Hamiltonian by magnetization sector, the double-quantum Hamiltonian by
  the parity of the down spins, finite pulses and Magnus sums whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

Operator = npt.NDArray[np.complex128]

MAX_SPINS = 10
MAX_DIM = 2**MAX_SPINS

# Largest relative asymmetry (Hermitian checks) and normalized defect
# ``|u^dag u - I|_F / sqrt(d)`` (unitary checks) an input may have.
DEFECT_TOL = 1e-10

__all__ = [
    "Operator",
    "MAX_SPINS",
    "MAX_DIM",
    "NumericalDiagnosticError",
    "as_operator",
    "commutator",
    "dagger",
    "hermiticity_defect",
    "require_hermitian",
    "require_unitary",
    "expm_hermitian",
    "SectorLayout",
    "HermitianPropagator",
    "unitary_root",
    "frobenius_magnitude",
]


class NumericalDiagnosticError(RuntimeError):
    """A computed propagator failed its numerical sanity check."""


def _checked_shape(m: np.ndarray, stack: bool) -> np.ndarray:
    """``m``, checked to be square (a (B, d, d) stack too with ``stack``) on a power-of-two ``d``."""
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    dim = m.shape[-1]
    if dim < 1 or dim > MAX_DIM or (dim & (dim - 1)) != 0:
        raise ValueError(
            f"operator dimension must be a power of two <= {MAX_DIM}, got {dim}"
        )
    return m


def as_operator(a: npt.ArrayLike) -> Operator:
    """Coerce ``a`` to a square complex matrix on a power-of-two dimension."""
    return _checked_shape(np.ascontiguousarray(a, dtype=np.complex128), stack=False)


def commutator(a: npt.ArrayLike, b: npt.ArrayLike) -> Operator:
    return np.asarray(a) @ np.asarray(b) - np.asarray(b) @ np.asarray(a)


def dagger(a: npt.ArrayLike) -> Operator:
    """Conjugate transpose of a matrix, or of each member of a (B, d, d) stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def hermiticity_defect(h: npt.ArrayLike) -> float | npt.NDArray[np.float64]:
    """Relative Frobenius-norm asymmetry ``|h - h^dag| / |h|`` (0 for h = 0).

    A float for one matrix; for a (B, d, d) stack, the (B,) defects of its members.
    """
    h = np.asarray(h)
    defect = _hermiticity_defects([h])
    return float(defect) if h.ndim == 2 else defect


def _hermiticity_defects(blocks: list[np.ndarray]) -> npt.NDArray[np.float64]:
    """:func:`hermiticity_defect` of each member of the matrix with these diagonal blocks, and zeros elsewhere.

    The norms are summed in squares over the blocks; off-block elements add
    nothing to either.  Where a member's plain norm is below ``2**-400``
    (its skew's squares could then reach the subnormals), infinite or nan,
    or its skew overflows, every member is scaled by ``2**-e`` first, where
    ``2**e`` is the power of two just above its largest |element|, so the
    norms neither overflow nor underflow.  A power-of-two scale leaves the
    ratio's bits alone, so both ways give one value.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norm, skew = _frobenius_norms(blocks)
    if not np.all((norm >= 2.0**-400) & (norm < np.inf) & (skew < np.inf)):
        peak = np.max([np.abs(b).max(axis=(-2, -1), initial=0.0) for b in blocks], axis=0)
        # 2**-e with peak = f 2**e, 0.5 <= f < 1; capped where a subnormal peak would overflow it
        scale = np.ldexp(1.0, np.minimum(-np.frexp(peak)[1], 1021))[..., None, None]
        norm, skew = _frobenius_norms([b * scale for b in blocks])
    return np.divide(skew, norm, out=np.zeros_like(norm), where=norm != 0.0)


def _frobenius_norms(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``|h|_F`` and ``|h - h^dag|_F`` of each member of the matrix with these diagonal blocks."""
    norm = np.sqrt(sum(np.linalg.norm(b, axis=(-2, -1)) ** 2 for b in blocks))
    skew = np.sqrt(sum(np.linalg.norm(b - dagger(b), axis=(-2, -1)) ** 2 for b in blocks))
    return norm, skew


def _require_hermitian_blocks(blocks: list[np.ndarray]) -> None:
    """Raise unless the matrix with these diagonal blocks, and zeros elsewhere, is Hermitian to ``DEFECT_TOL``."""
    defect = np.max(_hermiticity_defects(blocks), initial=0.0)
    if not defect <= DEFECT_TOL:
        raise ValueError(f"matrix is not Hermitian (relative asymmetry {defect:.3e})")


def require_hermitian(h: npt.ArrayLike) -> Operator:
    """``h`` as a complex matrix or (B, d, d) stack, each member Hermitian to ``DEFECT_TOL``."""
    h = _checked_shape(np.ascontiguousarray(h, dtype=np.complex128), stack=True)
    _require_hermitian_blocks([h])
    return h


def _unitarity_defects(blocks: np.ndarray) -> npt.NDArray[np.float64]:
    """``|u^dag u - I|_F / sqrt(rows)`` of each member of a (B, ..., k, k) block stack, shape (B,).

    A member's blocks are its diagonal blocks in some orthonormal basis,
    with zeros elsewhere, so this is the defect of the whole matrix; a
    block repeated by a symmetry is passed once and repeats its share.
    """
    k = blocks.shape[-1]
    residual = np.matmul(dagger(blocks), blocks).reshape(len(blocks), -1, k * k)
    residual[..., :: k + 1] -= 1.0
    residual = residual.reshape(len(blocks), -1).view(np.float64)
    return np.sqrt(np.einsum("bi,bi->b", residual, residual) / (blocks[0].size // k))


def _require_unitary_blocks(blocks: np.ndarray) -> None:
    """Raise unless every member of a (B, ..., k, k) block stack is unitary to ``DEFECT_TOL``."""
    defect = _unitarity_defects(blocks).max()
    if not defect <= DEFECT_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")


def require_unitary(u: npt.ArrayLike) -> Operator:
    """``u`` as a complex matrix with ``|u^dag u - I|_F / sqrt(d)`` (:func:`_unitarity_defects`) at most ``DEFECT_TOL``."""
    u = as_operator(u)
    _require_unitary_blocks(u[None])
    return u


def expm_hermitian(h: npt.ArrayLike, t: float) -> Operator:
    """Unitary propagator ``exp(-i h t)`` of a Hermitian generator.

    Computed by eigendecomposition of ``h``, so the result is exact up to
    roundoff for any ``t``.  Inputs with relative asymmetry above 1e-10 are
    rejected.  ``h`` may be a (B, d, d) stack; each member is checked and
    propagated on its own.
    """
    return HermitianPropagator(h).at(t)


@dataclass(frozen=True)
class SectorLayout:
    """Basis ordering that groups states into sectors (symmetry blocks).

    Attributes:
        order: ``order[p]`` is the basis state at sector-ordered position p.
        inverse: ``inverse[s]`` is the sector-ordered position of state s.
        spans: row slice of each sector in sector order.
    """

    order: npt.NDArray[np.intp]
    inverse: npt.NDArray[np.intp]
    spans: tuple[slice, ...]


class HermitianPropagator:
    """``exp(-i h t)`` for many ``t`` from one factorization of ``h``.

    ``h`` is one matrix or a (B, d, d) stack.  With a ``layout`` it must be
    block-diagonal over ``layout.spans`` in ``layout.order`` (else
    ``ValueError``); without one it is a single block.  It is checked
    Hermitian to ``DEFECT_TOL`` on its blocks, which, with the off-block
    elements known to be zero, gives the whole matrix's defect.  Each
    block ``b`` is factored by one batched ``eigh`` of ``(b + b^dag) / 2``,
    a real one when ``h`` is real (real symmetric), and its propagators,
    complex either way, are kept per duration until :meth:`forget`.
    """

    def __init__(self, h: npt.ArrayLike, layout: SectorLayout | None = None):
        h = np.asarray(h)
        h = _checked_shape(np.ascontiguousarray(h, dtype=np.float64 if np.isrealobj(h) else np.complex128), stack=True)
        self.layout = layout
        self._shape = h.shape
        if layout is None:
            self._index = [(slice(None), slice(None))]
        elif len(layout.order) != h.shape[-1]:
            raise ValueError(f"layout of {len(layout.order)} states for dimension {h.shape[-1]}")
        else:
            self._index = [(layout.order[s, None], layout.order[s]) for s in layout.spans]
        blocks = [h[(..., *index)] for index in self._index]
        if layout is not None and sum(map(np.count_nonzero, blocks)) != np.count_nonzero(h):
            raise ValueError("generator has nonzero elements outside the blocks of its layout")
        _require_hermitian_blocks(blocks)
        self._factors = [np.linalg.eigh((block + dagger(block)) / 2.0) for block in blocks]
        self._blocks: dict[float, list[np.ndarray]] = {}

    @property
    def spectral_norm(self) -> npt.NDArray[np.float64]:
        """Largest absolute eigenvalue of ``h``, per member of a stack (shape (B,))."""
        return np.max([np.abs(w).max(axis=-1) for w, _ in self._factors], axis=0)

    def blocks(self, t: float) -> list[np.ndarray]:
        """Per-span propagators ``exp(-i h_k t)`` in ``layout.spans`` order; an overflowing phase raises."""
        if t not in self._blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                phases = [np.exp(-1j * w * t) for w, _ in self._factors]
            if not all(np.isfinite(p).all() for p in phases):
                raise NumericalDiagnosticError(f"phases of exp(-i h t) overflow at t = {t!r}")
            self._blocks[t] = [(v * p[..., None, :]) @ dagger(v) for p, (_, v) in zip(phases, self._factors)]
        return self._blocks[t]

    def forget(self) -> None:
        """Drop the propagators kept per duration; the factorization stays."""
        self._blocks.clear()

    def at(self, t: float) -> Operator:
        """Dense ``exp(-i h t)`` in the standard basis, with the shape of ``h``."""
        u = np.zeros(self._shape, dtype=np.complex128)
        for index, block in zip(self._index, self.blocks(t)):
            u[(..., *index)] = block
        return u


# Largest |tan(c/2)| of a centred phase c kept without recentring: the
# eigvalsh error of every phase grows with the norm of the Cayley matrix.
_RECENTRE_TAN = 100.0


def _cayley(u: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian part of ``K = i(2(I + v)^{-1} - I)``, ``v = e^{-i mu} u``, and ``|K - K^dag|_F``.

    ``u`` is a (B, d, d) stack and ``mu`` its (B,) centres.  For unitary
    ``u`` the eigenvalues of ``K`` are ``tan(c / 2)`` of the centred
    phases ``c = theta - mu``.  ``K - K^dag = 2i W (I - v v^dag) W^dag``
    with ``W = (I + v)^{-1}``, so ``|K - K^dag|_F / (1 + max t^2)`` is at
    most half of ``|I - v v^dag|_F`` and, for ``u`` scaled off the unit
    circle by ``r``, at least ``|r - 1|``.
    """
    a = u * np.exp(-1j * mu)[:, None, None]
    diag = a.reshape(len(a), -1)[:, :: u.shape[-1] + 1]
    diag += 1.0
    w = np.linalg.inv(a)
    # a is scratch once inverted: with W = (I + v)^{-1}, K = i(2W - I) has
    # (K - K^dag) / 2i = W + W^dag - I and Hermitian part i(W - W^dag)
    np.add(w, dagger(w), out=a)
    diag -= 1.0
    flat = a.reshape(len(a), -1).view(np.float64)
    skew = 2.0 * np.sqrt(np.einsum("bi,bi->b", flat, flat))
    np.subtract(w, dagger(w), out=a)
    a *= 1j
    return a, skew


def _widest_gap_centres(c: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Centres opposite the middle of the widest gap of each row of ascending phases ``c`` about ``mu``."""
    gaps = np.diff(c, axis=-1, append=c[:, :1] + 2.0 * np.pi)
    widest = gaps.argmax(axis=-1)[:, None]
    cut = np.take_along_axis(c + gaps / 2.0, widest, axis=-1)[:, 0]
    return np.angle(np.exp(1j * (mu + cut + np.pi)))


def _unitary_eigenphases(u: np.ndarray, basis: bool = False):
    """Centred eigenphases of a unitary or (B, d, d) stack, their centres, and on request an orthonormal eigenbasis.

    Each member is turned by the phase ``mu`` of its trace and mapped by
    :func:`_cayley` to a Hermitian matrix, whose ``eigvalsh`` (``eigh``
    with ``basis``) gives ``t = tan(c / 2)`` of the centred phases ``c`` in
    ``(-pi, pi)``: the branch cut sits opposite ``mu``, and the phases are
    ``mu + c``, unwrapped.  A member with ``max |t|`` above
    ``_RECENTRE_TAN``, or a phase exactly on the cut (``I + v`` singular;
    solved first 1 rad further on), is centred once more, with the cut in
    the middle of the largest gap of its phases.  So every phase lies at
    least min(0.02 rad, pi/d) from its cut.  A Cayley skew above 1e-7
    raises :class:`NumericalDiagnosticError`.  Returns ``(c, mu)``, shaped
    as ``u`` minus one and two axes, and with ``basis`` also ``V`` with
    ``u = V diag(e^{i (mu + c)}) V^dag``.
    """
    # _cayley shifts the diagonal through a flat view, which needs C order
    stack = np.ascontiguousarray(u).reshape(-1, *u.shape[-2:])
    solve = np.linalg.eigh if basis else (lambda k: (np.linalg.eigvalsh(k), None))
    mu = np.angle(np.trace(stack, axis1=-2, axis2=-1))
    singular = np.zeros(len(stack), dtype=bool)
    try:
        k, skew = _cayley(stack, mu)
    except np.linalg.LinAlgError:
        for b in range(len(stack)):
            try:
                _cayley(stack[b : b + 1], mu[b : b + 1])
            except np.linalg.LinAlgError:
                mu[b] += 1.0
                singular[b] = True
        k, skew = _cayley(stack, mu)
    t, v = solve(k)
    far = np.flatnonzero(singular | (np.abs(t).max(axis=-1) > _RECENTRE_TAN))
    if far.size:
        mu[far] = _widest_gap_centres(2.0 * np.arctan(t[far]), mu[far])
        k, skew[far] = _cayley(stack[far], mu[far])
        t[far], v_far = solve(k)
        if basis:
            v[far] = v_far
    off_circle = float((skew / (1.0 + np.abs(t).max(axis=-1) ** 2)).max())
    if not off_circle <= 1e-7:
        raise NumericalDiagnosticError(
            "eigenvalues of a claimed-unitary propagator are off the unit circle "
            f"(Cayley skew {off_circle:.3e})"
        )
    c, mu = (2.0 * np.arctan(t)).reshape(u.shape[:-1]), mu.reshape(u.shape[:-2])
    return (c, mu, v.reshape(u.shape)) if basis else (c, mu)


def _whole_member_branch(theta: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Eigenphases ``mu_b + c`` of (B, blocks, k) block solves, moved by 2 pi n onto the branch of the whole member.

    That is the branch a dense solve of the block-diagonal member takes:
    within pi of the phase of its summed block ``traces`` (B, blocks) or,
    if a phase is then within 0.02 rad of the cut, of the centre opposite
    the widest gap of all its phases.  A phase on that branch keeps its bits.
    """
    onto = lambda th, c: th - 2.0 * np.pi * np.ceil((th - c[:, None, None]) / (2.0 * np.pi) - 0.5)
    centre = np.angle(traces.sum(axis=-1))
    theta = onto(theta, centre)
    centred = (theta - centre[:, None, None]).reshape(len(theta), -1)
    far = np.flatnonzero(np.abs(np.tan(centred / 2.0)).max(axis=-1) > _RECENTRE_TAN)
    if far.size:
        theta[far] = onto(theta[far], _widest_gap_centres(np.sort(centred[far], axis=-1), centre[far]))
    return theta


def _require_root_order(m: int) -> None:
    """Raise unless ``m`` is a positive integer."""
    if m < 1 or int(m) != m:
        raise ValueError(f"root order must be a positive integer, got {m}")


def unitary_root(u: npt.ArrayLike, m: int) -> Operator:
    """``m``-th root ``e^{i mu / m} V diag(e^{i c / m}) V^dag`` of a unitary matrix.

    ``c``, ``mu`` and the orthonormal eigenbasis ``V`` come from ``eigh``
    of the centred Cayley transform (:func:`_unitary_eigenphases`), so
    ``root^m = u`` and a global phase of ``u`` only turns the root.  ``V``
    is unitary to roundoff, which keeps reconstruction errors at machine
    level even for high powers.  ``m`` must be a positive integer
    (``ValueError``).
    """
    _require_root_order(m)
    u = require_unitary(u)
    if m == 1:
        return u.copy()
    c, mu, v = _unitary_eigenphases(u, basis=True)
    return (v * np.exp(1j * (mu + c) / m)) @ dagger(v)


def frobenius_magnitude(h: npt.ArrayLike) -> float:
    """``sqrt(Tr(h^dag h))``, the Frobenius size measure used for Hamiltonian terms.

    For Hermitian ``h`` this equals ``sqrt(Tr(h h))``.  Callers comparing
    effective-Hamiltonian terms normalize by the same measure of the bare
    dipolar Hamiltonian.
    """
    return float(np.linalg.norm(np.asarray(h)))
