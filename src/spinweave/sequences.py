"""Pulse-sequence representation, DSL parser, built-ins, and frame analysis.

The sequence DSL is plain UTF-8 text: tokens separated by ``-``, where a
token is either a delay (``tau``, ``2tau``, ...) or a pulse phase (``x``,
``-x``, ``y``, ``-y``; the overbar notation for inverted phases is written
with a leading minus).  ``#`` starts a comment line.  As an extension point
the parser also accepts ``p<degrees>`` tokens (e.g. ``p45``) for arbitrary
pulse phases; the seven built-ins use only the four cardinal phases.

Every pulse is a nominal pi/2 rotation.  A pulse of phase ``phi`` applies
``exp(-i (pi/2) S_phi)`` with ``S_phi = cos(phi) Sx + sin(phi) Sy``; so
``-x`` means ``phi = 180 deg``.  Flipping this global sign convention
conjugates all derived quantities without changing any reported magnitude.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .spins import collective_rotation

__all__ = [
    "PulseEvent",
    "PulseSequence",
    "SequenceParseError",
    "NonCyclicSequenceError",
    "parse_sequence",
    "builtin",
    "BUILTIN_NAMES",
    "validate_cyclic",
    "FrameMatrix",
    "frame_matrix",
    "row_sum_check",
    "ascii_frame",
    "schedule",
]

CARDINAL_PHASES = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}


class SequenceParseError(ValueError):
    """Raised on malformed sequence text; carries the offending token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


class NonCyclicSequenceError(ValueError):
    """Raised when the ideal-pulse composite rotation is not +/- identity."""

    def __init__(self, name: str, residual: float):
        super().__init__(
            f"sequence {name!r} is not cyclic: composite rotation differs from "
            f"+/-identity by {residual:.3e}"
        )
        self.residual = residual


@dataclass(frozen=True)
class PulseEvent:
    """One sequence element: a delay (integer multiple of tau) or a pi/2 pulse."""

    kind: str  # "delay" | "pulse"
    duration_factor: int = 0
    phase_deg: float = 0.0

    @classmethod
    def delay(cls, factor: int) -> "PulseEvent":
        return cls(kind="delay", duration_factor=int(factor))

    @classmethod
    def pulse(cls, phase_deg: float) -> "PulseEvent":
        return cls(kind="pulse", phase_deg=float(phase_deg) % 360.0)


@dataclass(frozen=True)
class PulseSequence:
    """An ordered pulse/delay cycle.

    ``cycle_windows`` is M = t_c / tau, the total delay content of the cycle
    in units of tau; the cycle time is ``M * tau``.
    """

    name: str
    events: tuple[PulseEvent, ...]

    @property
    def n_pulses(self) -> int:
        return sum(1 for e in self.events if e.kind == "pulse")

    @property
    def cycle_windows(self) -> int:
        return sum(e.duration_factor for e in self.events if e.kind == "delay")

    def cycle_time(self, tau: float) -> float:
        return self.cycle_windows * tau


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _parse_token(raw: str, position: int) -> PulseEvent:
    m = re.fullmatch(r"(\d*)\s*tau", raw)
    if m:
        factor = int(m.group(1)) if m.group(1) else 1
        if factor < 1:
            raise SequenceParseError(f"delay factor must be >= 1 in {raw!r}", position)
        return PulseEvent.delay(factor)
    if raw in CARDINAL_PHASES:
        return PulseEvent.pulse(CARDINAL_PHASES[raw])
    m = re.fullmatch(r"(-?)p(\d+(?:\.\d+)?)", raw)
    if m:
        phase = float(m.group(2)) + (180.0 if m.group(1) else 0.0)
        return PulseEvent.pulse(phase)
    raise SequenceParseError(f"unknown token {raw!r}", position)


def parse_sequence(text: str, name: str = "custom") -> PulseSequence:
    """Parse DSL text into a :class:`PulseSequence`.

    Raises :class:`SequenceParseError` on unknown tokens (with position) and
    on empty input.
    """
    pieces = [p.strip() for p in _strip_comments(text).split("-")]
    if all(p == "" for p in pieces):
        raise SequenceParseError("empty sequence", 0)
    events: list[PulseEvent] = []
    negate_next = False
    position = 0
    for piece in pieces:
        if piece == "":
            if negate_next:
                raise SequenceParseError("unexpected '-'", position)
            negate_next = True
            continue
        position += 1
        raw = ("-" + piece) if negate_next else piece
        negate_next = False
        events.append(_parse_token(raw, position))
    if negate_next:
        raise SequenceParseError("dangling '-' at end of sequence", position + 1)
    if not events:
        raise SequenceParseError("empty sequence", 0)
    return PulseSequence(name=name, events=tuple(events))


# The seven built-in cycles.  Transcriptions are cross-checked in the test
# suite by cyclicity, window/pulse counts, and their averaging properties.
_BUILTIN_TEXT = {
    "WHH": "tau - -x - tau - y - 2tau - -y - tau - x - tau",
    "MREV8": (
        "tau - x - tau - y - 2tau - -y - tau - -x - 2tau"
        " - -x - tau - y - 2tau - -y - tau - x - tau"
    ),
    "MREV16": (
        "tau - -x - tau - y - 2tau - -y - tau - x - 2tau"
        " - x - tau - y - 2tau - -y - tau - -x - 2tau"
        " - -x - tau - -y - 2tau - y - tau - x - 2tau"
        " - x - tau - -y - 2tau - y - tau - -x - tau"
    ),
    "BR24": (
        "tau - x - tau - y - 2tau - -y - tau - -x - 2tau"
        " - -x - tau - y - 2tau - -y - tau - x - 2tau"
        " - y - tau - x - 2tau - -x - tau - -y - 2tau"
        " - -y - tau - x - 2tau - y - tau - x - 2tau"
        " - -x - tau - -y - 2tau - -y - tau - x - 2tau"
        " - -x - tau - y - 2tau - -x - tau - y - tau"
    ),
    "CORY48": (
        "tau - x - tau - y - 2tau - -x - tau - y - 2tau"
        " - x - tau - y - 2tau - x - tau - y - 2tau"
        " - x - tau - -y - 2tau - x - tau - y - 2tau"
        " - -y - tau - -x - 2tau - y - tau - -x - 2tau"
        " - -y - tau - -x - 2tau - -y - tau - -x - 2tau"
        " - -y - tau - x - 2tau - -y - tau - -x - 2tau"
        " - -x - tau - y - 2tau - -x - tau - -y - 2tau"
        " - -x - tau - y - 2tau - x - tau - -y - 2tau"
        " - -x - tau - -y - 2tau - x - tau - -y - 2tau"
        " - y - tau - -x - 2tau - y - tau - x - 2tau"
        " - y - tau - -x - 2tau - -y - tau - x - 2tau"
        " - y - tau - x - 2tau - -y - tau - x - tau"
    ),
    "YXX24": (
        "-y - tau - x - tau - -x - tau - y - tau - -x - tau - -x - tau"
        " - y - tau - -x - tau - x - tau - -y - tau - x - tau - x - tau"
        " - y - tau - -x - tau - x - tau - -y - tau - x - tau - x - tau"
        " - -y - tau - x - tau - -x - tau - y - tau - -x - tau - -x - tau"
    ),
    "YXX48": (
        "y - tau - -x - tau - -x - tau - y - tau - -x - tau - -x - tau"
        " - -y - tau - x - tau - x - tau - y - tau - -x - tau - -x - tau"
        " - -y - tau - x - tau - x - tau - -y - tau - x - tau - x - tau"
        " - y - tau - -x - tau - -x - tau - y - tau - -x - tau - -x - tau"
        " - -y - tau - x - tau - x - tau - y - tau - -x - tau - -x - tau"
        " - -y - tau - x - tau - x - tau - -y - tau - x - tau - x - tau"
        " - y - tau - -x - tau - -x - tau - -y - tau - x - tau - x - tau"
        " - y - tau - -x - tau - -x - tau - -y - tau - x - tau - x - tau"
    ),
}

BUILTIN_NAMES = tuple(_BUILTIN_TEXT)
_BUILTIN_CACHE: dict[str, PulseSequence] = {}


def builtin(name: str) -> PulseSequence:
    """One of the seven built-in decoupling cycles (WHH, MREV8, MREV16, BR24,
    CORY48, YXX24, YXX48)."""
    key = name.upper()
    if key not in _BUILTIN_TEXT:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if key not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[key] = parse_sequence(_BUILTIN_TEXT[key], name=key)
    return _BUILTIN_CACHE[key]


# Largest Frobenius residual of the one-spin composite from +/- identity.
CYCLIC_TOL = 1e-10


def validate_cyclic(seq: PulseSequence) -> int:
    """Sign s with the ideal-pulse composite rotation equal to s * identity.

    Composes the delta-pulse rotations on a single spin (the smallest
    faithful space).  Raises :class:`NonCyclicSequenceError` with the
    residual norm when the composite is not within ``CYCLIC_TOL`` of
    proportional to identity.
    """
    u = np.eye(2, dtype=np.complex128)
    rotations: dict[float, np.ndarray] = {}
    for e in seq.events:
        if e.kind == "pulse":
            if e.phase_deg not in rotations:
                rotations[e.phase_deg] = collective_rotation(1, e.phase_deg, np.pi / 2)
            u = rotations[e.phase_deg] @ u
    sign = np.trace(u).real / 2.0
    residual = float(np.linalg.norm(u - sign * np.eye(2)))
    if not (residual <= CYCLIC_TOL and abs(abs(sign) - 1.0) <= CYCLIC_TOL):
        raise NonCyclicSequenceError(seq.name, residual)
    return 1 if sign > 0 else -1


# Vector rotations applied to the toggling-frame image of S_z by each
# cardinal pi/2 pulse (exact integer arithmetic).
_FRAME_ROTATIONS = {
    0.0: np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=np.int64),  # +x
    180.0: np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=np.int64),  # -x
    90.0: np.array([[0, 0, -1], [0, 1, 0], [1, 0, 0]], dtype=np.int64),  # +y
    270.0: np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=np.int64),  # -y
}


@dataclass(frozen=True)
class FrameMatrix:
    """Toggling-frame orientation of S_z per tau window.

    ``entries`` has shape (3, M): rows are the X, Y, Z axes, columns the M
    windows, each entry in {-1, 0, +1} with exactly one nonzero per column.
    Delays spanning k*tau contribute k equal columns.  For sequences that
    begin with a pulse there is no pre-pulse window, and a cycle of pulses
    alone has shape (3, 0).
    """

    sequence_name: str
    entries: np.ndarray

    @property
    def windows(self) -> int:
        return self.entries.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


def _toggling_axes(steps: list[tuple[str, float]]) -> list[tuple[int, int, float]] | None:
    """The toggling frame of a delta-pulse :func:`schedule`: ``(axis, sign, seconds)`` per free step.

    ``sign * axis`` (0, 1, 2 for x, y, z) is the image of S_z under the
    cardinal pulses before the step, from the exact integer product of
    :data:`_FRAME_ROTATIONS`.  ``None`` if a pulse phase is not cardinal.
    """
    frame = np.eye(3, dtype=np.int64)
    axes = []
    for kind, value in steps:
        if kind == "pulse":
            if value not in _FRAME_ROTATIONS:
                return None
            frame = frame @ _FRAME_ROTATIONS[value]
        else:
            axis = int(np.flatnonzero(frame[:, 2])[0])
            axes.append((axis, int(frame[axis, 2]), value))
    return axes


def frame_matrix(seq: PulseSequence) -> FrameMatrix:
    """Frame matrix of a cyclic sequence (cardinal pulse phases only), from :func:`_toggling_axes` at ``tau = 1``."""
    validate_cyclic(seq)
    axes = _toggling_axes(schedule(seq, 1.0))
    if axes is None:
        raise ValueError("frame matrix requires cardinal pulse phases")
    columns = [sign * np.eye(3, dtype=np.int64)[axis] for axis, sign, windows in axes for _ in range(round(windows))]
    entries = np.array(columns, dtype=np.int64).reshape(-1, 3).T
    entries.flags.writeable = False
    return FrameMatrix(sequence_name=seq.name, entries=entries)


def row_sum_check(f: FrameMatrix) -> tuple[np.ndarray, str]:
    """Weighted row sums and the decoupling class they imply.

    All-zero row sums mean interactions proportional to S_z average to zero
    at lowest order (time-suspension capable); any nonzero row sum leaves a
    scaled effective field (spectroscopic).  A cycle of pulses alone has
    no window to average over, and is labelled "no delay window".
    """
    sums = f.row_sums()
    if not f.windows:
        return sums, "no delay window"
    return sums, "time-suspension" if np.all(sums == 0) else "spectroscopic"


def ascii_frame(f: FrameMatrix) -> str:
    """Frame matrix as an ASCII grid, rows X/Y/Z, entries '+', '-', '.'."""
    glyphs = {1: "+", -1: "-", 0: "."}
    lines = []
    for label, row in zip("XYZ", f.entries):
        lines.append(label + ": " + " ".join(glyphs[int(v)] for v in row))
    return "\n".join(lines)


def schedule(
    seq: PulseSequence, tau: float, pulse_width: float = 0.0
) -> list[tuple[str, float]]:
    """Realize a cycle as ordered ``("free", seconds)`` / ``("pulse", phase_deg)`` steps.

    Finite-width pulses are flushed to the end of their preceding delay
    window, so the cycle time stays ``M * tau`` as the width varies.  A
    leading pulse (no preceding delay) executes at the cycle start and its
    width is borrowed from the final delay instead.  Zero-length free steps
    are dropped.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    if not 0 <= pulse_width < np.inf:
        raise ValueError(f"pulse width must be nonnegative and finite, got {pulse_width!r}")
    if pulse_width > 0 and not any(e.kind == "delay" for e in seq.events):
        raise ValueError("finite-width pulses need at least one delay window")
    steps: list[tuple[str, float]] = []
    trailing_debt = 0.0
    events = list(seq.events)
    start = 0
    if events and events[0].kind == "pulse":
        steps.append(("pulse", events[0].phase_deg))
        trailing_debt = pulse_width
        start = 1
    pending = 0.0
    tol = 1e-15
    for e in events[start:]:
        if e.kind == "delay":
            pending += e.duration_factor * tau
            continue
        free = pending - pulse_width
        if free < -tol:
            raise ValueError(
                f"pulse width {pulse_width:g} s does not fit in a "
                f"{pending:g} s window of sequence {seq.name!r}"
            )
        if free > tol:
            steps.append(("free", free))
        steps.append(("pulse", e.phase_deg))
        pending = 0.0
    final = pending - trailing_debt
    if final < -tol:
        raise ValueError(
            f"pulse width {pulse_width:g} s does not fit in the trailing "
            f"{pending:g} s window of sequence {seq.name!r}"
        )
    if final > tol:
        steps.append(("free", final))
    return steps
