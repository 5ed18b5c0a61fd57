import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave.aht import PULSE_SLICES, TogglingSegment, _toggled_hamiltonian, toggling_segments
from spinweave.control import IDEAL, cycle_unitary
from spinweave.sequences import (
    BUILTIN_NAMES,
    NonCyclicSequenceError,
    PulseEvent,
    PulseSequence,
    SequenceParseError,
    _toggling_axes,
    _toggling_frames,
    ascii_frame,
    builtin,
    frame_matrix,
    parse_sequence,
    row_sum_check,
    schedule,
    validate_cyclic,
)
from spinweave.spins import SpinSystem, _parity_blocks, collective_rotation, sample_couplings, spin_operator

from conftest import NON_CARDINAL, cycle_kernel

WHH_TEXT = "tau - -x - tau - y - 2tau - -y - tau - x - tau"

# expected (pulses, windows) of each built-in cycle
EXPECTED_COUNTS = {
    "WHH": (4, 6),
    "MREV8": (8, 12),
    "MREV16": (16, 24),
    "BR24": (24, 36),
    "CORY48": (48, 72),
    "YXX24": (24, 24),
    "YXX48": (48, 48),
}


def pulse_phases(seq):
    return [e.phase_deg for e in seq.events if e.kind == "pulse"]


PHASE_TOKENS = {0.0: "x", 90.0: "y", 180.0: "-x", 270.0: "-y"}


def dsl_text(seq):
    """Write a sequence in the DSL's canonical tokens, independently of the parser."""
    parts = []
    for e in seq.events:
        if e.kind == "delay":
            parts.append("tau" if e.duration_factor == 1 else f"{e.duration_factor}tau")
        else:
            parts.append(PHASE_TOKENS.get(e.phase_deg, f"p{e.phase_deg:g}"))
    return " - ".join(parts)


class TestParser:
    def test_whh(self):
        seq = parse_sequence(WHH_TEXT, "WHH")
        assert seq.n_pulses == 4
        assert seq.cycle_windows == 6
        kinds = [e.kind for e in seq.events]
        assert kinds == ["delay", "pulse"] * 4 + ["delay"]
        assert pulse_phases(seq) == [180.0, 90.0, 270.0, 0.0]

    def test_bare_delay(self):
        seq = parse_sequence("tau")
        assert seq.n_pulses == 0
        assert seq.cycle_windows == 1
        assert validate_cyclic(seq) == 1  # trivially cyclic

    def test_multi_tau_and_whitespace(self):
        seq = parse_sequence("  3tau -\n x - tau ")
        assert seq.cycle_windows == 4
        assert seq.events[0].duration_factor == 3

    def test_comments(self):
        seq = parse_sequence("# a comment line\ntau - x - tau # trailing\n- -x - tau")
        assert seq.n_pulses == 2
        assert seq.cycle_windows == 3

    def test_phase_extension_in_degrees(self):
        seq = parse_sequence("tau - p45 - tau")
        assert pulse_phases(seq) == [45.0]
        assert pulse_phases(parse_sequence("tau - -p45 - tau")) == [225.0]

    def test_unknown_token_reports_position(self):
        with pytest.raises(SequenceParseError) as err:
            parse_sequence("tau - x - blorp - tau")
        assert "blorp" in str(err.value)
        assert err.value.position == 3

    def test_empty_sequence(self):
        with pytest.raises(SequenceParseError, match="empty"):
            parse_sequence("   ")

    def test_dangling_minus(self):
        with pytest.raises(SequenceParseError):
            parse_sequence("tau - x -")
        with pytest.raises(SequenceParseError):
            parse_sequence("tau - - - x")

    def test_zero_delay_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_sequence("0tau - x - tau")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip_builtins(self, name):
        seq = builtin(name)
        assert parse_sequence(dsl_text(seq), name).events == seq.events

    @given(
        st.lists(
            st.sampled_from(["tau", "2tau", "3tau", "x", "-x", "y", "-y", "p45", "-p30"]),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_random(self, tokens):
        text = " - ".join(tokens)
        seq = parse_sequence(text)
        assert parse_sequence(dsl_text(seq)).events == seq.events


class TestBuiltins:
    @pytest.mark.parametrize("name,counts", EXPECTED_COUNTS.items())
    def test_counts(self, name, counts):
        seq = builtin(name)
        assert (seq.n_pulses, seq.cycle_windows) == counts

    def test_whh_matches_table_row(self):
        assert builtin("WHH").events == parse_sequence(WHH_TEXT).events

    def test_yxx_sequences_start_with_pulse(self):
        assert builtin("YXX24").events[0].kind == "pulse"
        assert builtin("YXX48").events[0].kind == "pulse"
        assert builtin("WHH").events[0].kind == "delay"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            builtin("WAHUHA99")

    def test_case_insensitive(self):
        assert builtin("whh") is builtin("WHH")


class TestCyclicity:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_all_builtins_cyclic(self, name):
        assert validate_cyclic(builtin(name)) in (-1, 1)

    def test_single_pulse_not_cyclic(self):
        with pytest.raises(NonCyclicSequenceError) as err:
            validate_cyclic(parse_sequence("tau - x - tau"))
        assert err.value.residual > 0.5

    def test_two_opposite_pulses_cyclic(self):
        assert validate_cyclic(parse_sequence("tau - x - tau - -x - tau")) == 1

    def test_non_finite_phase_not_cyclic(self):
        events = (PulseEvent.delay(1), PulseEvent.pulse(float("nan")), PulseEvent.delay(1))
        with pytest.raises(NonCyclicSequenceError):
            validate_cyclic(PulseSequence("nan-phase", events))


class TestFrameMatrix:
    def test_whh_windows_and_dwell(self):
        fm = frame_matrix(builtin("WHH"))
        assert fm.windows == 6
        # equal dwell: each axis occupied during exactly 2 of 6 windows
        assert [int(np.abs(row).sum()) for row in fm.entries] == [2, 2, 2]
        # the 2tau window contributes two identical columns
        assert np.array_equal(fm.entries[:, 2], fm.entries[:, 3])
        assert np.abs(fm.entries).sum(axis=0).tolist() == [1] * 6

    def test_no_pulse_sequence_stays_on_z(self):
        fm = frame_matrix(parse_sequence("tau - x - tau - -x - 2tau", "idle-ish"))
        assert fm.entries[2, 0] == 1
        fm_plain = frame_matrix(parse_sequence("4tau"))
        assert np.array_equal(fm_plain.entries[2], np.ones(4, dtype=int))
        assert np.array_equal(fm_plain.entries[:2], np.zeros((2, 4), dtype=int))

    def test_cory48_rows_balanced(self):
        fm = frame_matrix(builtin("CORY48"))
        for row in fm.entries:
            assert (row == 1).sum() == (row == -1).sum()

    def test_leading_pulse_window_excluded(self):
        fm = frame_matrix(builtin("YXX24"))
        assert fm.windows == 24

    def test_requires_cyclic(self):
        with pytest.raises(NonCyclicSequenceError):
            frame_matrix(parse_sequence("tau - x - tau"))

    def test_cycle_without_delay_has_no_columns(self):
        fm = frame_matrix(parse_sequence("x - x - x - x"))
        assert fm.entries.shape == (3, 0)
        sums, _ = row_sum_check(fm)
        assert sums.tolist() == [0, 0, 0]
        assert ascii_frame(fm) == "X: \nY: \nZ: "

    def test_requires_cardinal_phases(self):
        with pytest.raises(ValueError, match="cardinal"):
            frame_matrix(parse_sequence("tau - p45 - tau - p225 - tau"))


# the built-ins (YXX24 and YXX48 open with a pulse) and three DSL edge cases
WALK_CASES = {name: builtin(name) for name in BUILTIN_NAMES} | {
    "consecutive delays": parse_sequence("tau - tau - x - 2tau - -x - tau", "consecutive"),
    "pulses only": parse_sequence("x - x - x - x", "pulses_only"),
    "minus identity": parse_sequence("tau - x - tau - x - tau - x - tau - x", "minus_identity"),
}


def rotated_frames(seq: PulseSequence, tau: float, pulse_width: float = 0.0, slices: int = 0) -> list[tuple[np.ndarray, float]]:
    """``(v, seconds)`` per free step and pulse slice of ``schedule(seq, tau, pulse_width)``, ``v = 2 Tr((u^dag S_z u) S)`` of one spin.

    ``u`` is the product of dense one-spin rotations: every pulse so far, or,
    for slice k, the pulses before it and ``(k + 1/2) / slices`` of its pi/2.
    """
    spin = [spin_operator(a) for a in "xyz"]

    def image(u):
        toggled = u.conj().T @ spin[2] @ u
        return np.array([2.0 * np.trace(toggled @ s).real for s in spin])

    u = np.eye(2)
    frames = []
    for kind, value in schedule(seq, tau, pulse_width):
        if kind == "free":
            frames.append((image(u), value))
            continue
        for k in range(slices if pulse_width > 0.0 else 0):
            frames.append((image(collective_rotation(1, value, (np.pi / 2) * (k + 0.5) / slices) @ u), pulse_width / slices))
        u = collective_rotation(1, value, np.pi / 2) @ u
    return frames


def rotated_axes(seq: PulseSequence, tau: float) -> list[tuple[int, int, float]]:
    """``(axis, sign, seconds)`` per free step of ``schedule(seq, tau)``, from :func:`rotated_frames`."""
    axes = []
    for v, seconds in rotated_frames(seq, tau):
        axis = int(np.abs(v).argmax())
        sign = int(np.sign(v[axis]))
        assert np.abs(v - sign * np.eye(3)[axis]).max() < 1e-12
        axes.append((axis, sign, seconds))
    return axes


# the walk cases, and cyclic cycles with non-cardinal phases
FRAME_CASES = WALK_CASES | {text: parse_sequence(text) for text in NON_CARDINAL}


class TestTogglingWalk:
    """The one toggling-frame walk that the frame matrix, the Magnus segments and the parity-path cycle read."""

    @pytest.mark.parametrize("name", list(WALK_CASES))
    def test_walk_matches_rotations_and_frame_matrix(self, name):
        seq = WALK_CASES[name]
        for tau in (1.0, 4e-6, 3.3e-6):
            assert _toggling_axes(schedule(seq, tau)) == rotated_axes(seq, tau)
        columns = [sign * np.eye(3, dtype=int)[axis] for axis, sign, windows in rotated_axes(seq, 1.0) for _ in range(round(windows))]
        entries = frame_matrix(seq).entries
        assert entries.shape == (3, seq.cycle_windows)
        assert np.array_equal(entries, np.array(columns, dtype=int).reshape(-1, 3).T)

    @pytest.mark.parametrize(
        "name, pulse_width",
        [(name, width) for name, seq in FRAME_CASES.items() for width in (0.0, 1e-6) if seq.cycle_windows or not width],
    )
    def test_frames_match_rotations(self, name, pulse_width):
        # every n, of a window or a pulse slice, of any phase, is the image of S_z under the dense rotations;
        # their own roundoff grows with the pulses composed and reads 1.8e-15 on CORY48 and YXX48
        seq, tau = FRAME_CASES[name], 3.3e-6
        frames = list(_toggling_frames(schedule(seq, tau, pulse_width), pulse_width, PULSE_SLICES))
        reference = rotated_frames(seq, tau, pulse_width, PULSE_SLICES)
        assert [seconds for _, seconds in frames] == [seconds for _, seconds in reference]
        for (n, _), (v, _) in zip(frames, reference):
            assert np.abs(n - v).max() <= 4e-15

    def test_non_cardinal_phase_has_no_walk(self):
        assert _toggling_axes(schedule(parse_sequence("tau - p45 - tau - p225 - tau"), 4e-6)) is None

    @pytest.mark.parametrize("name", list(WALK_CASES))
    def test_segments_and_parity_cycle_read_the_walk(self, name):
        # both equal, bit for bit, what they build from the axes of the one-spin rotations
        seq, tau = WALK_CASES[name], 3.3e-6
        axes = rotated_axes(seq, tau)
        offset = SpinSystem.create(sample_couplings(5, 4), global_offset_hz=300.0, disorder_hz=[0.0, 20.0, -10.0, 5.0])
        if axes:
            segments = toggling_segments(offset, seq, tau)
            expected = [TogglingSegment(_toggled_hamiltonian(offset, sign * np.eye(3, dtype=np.int64)[axis]), seconds) for axis, sign, seconds in axes]
            assert [s.duration for s in segments] == [s.duration for s in expected]
            assert all(np.array_equal(s.hamiltonian, e.hamiltonian) for s, e in zip(segments, expected))
        else:
            with pytest.raises(ValueError, match="no toggling segments"):
                toggling_segments(offset, seq, tau)
        for n_spins in (4, 5):
            system = SpinSystem.create(sample_couplings(6, n_spins))
            blocks = cycle_kernel([system], IDEAL)._parity_cycles(axes, validate_cyclic(seq))
            assert np.array_equal(cycle_unitary(system, seq, IDEAL, tau), _parity_blocks(n_spins).to_standard(blocks)[0])


class TestRowSums:
    def test_time_suspension_rows_zero(self):
        for name in ("CORY48", "YXX24", "YXX48"):
            sums, label = row_sum_check(frame_matrix(builtin(name)))
            assert np.array_equal(sums, np.zeros(3, dtype=int)), name
            assert label == "time-suspension"

    def test_whh_rows_magnitude_two(self):
        sums, label = row_sum_check(frame_matrix(builtin("WHH")))
        assert sorted(np.abs(sums).tolist()) == [2, 2, 2]
        assert label == "spectroscopic"

    def test_zero_pulse_z_sum_is_window_count(self):
        sums, label = row_sum_check(frame_matrix(parse_sequence("5tau")))
        assert sums.tolist() == [0, 0, 5]
        assert label == "spectroscopic"

    def test_pulses_alone_have_no_delay_window(self):
        # M = 0: the empty (3, 0) frame matrix has zero sums but no window to average over
        sums, label = row_sum_check(frame_matrix(parse_sequence("x - x - x - x")))
        assert sums.tolist() == [0, 0, 0]
        assert label == "no delay window"

    def test_ascii_grid(self):
        text = ascii_frame(frame_matrix(builtin("WHH")))
        lines = text.splitlines()
        assert lines[0].startswith("X:") and lines[2].startswith("Z:")
        assert set(text) <= set("XYZ:+-. \n")


class TestSchedule:
    def test_delta_pulses(self):
        steps = schedule(builtin("WHH"), 4e-6)
        frees = [v for k, v in steps if k == "free"]
        assert frees == [4e-6, 4e-6, 8e-6, 4e-6, 4e-6]
        assert sum(v for k, v in steps if k == "free") == pytest.approx(24e-6)

    def test_finite_width_flush_to_window_end(self):
        tau, tw = 4e-6, 1e-6
        steps = schedule(builtin("WHH"), tau, tw)
        assert steps[0] == ("free", pytest.approx(tau - tw))
        assert steps[1][0] == "pulse"
        # the 2tau window loses one pulse width
        frees = [v for k, v in steps if k == "free"]
        assert frees[2] == pytest.approx(2 * tau - tw)
        # trailing window has no pulse and stays whole
        assert frees[-1] == pytest.approx(tau)
        assert sum(frees) + 4 * tw == pytest.approx(builtin("WHH").cycle_time(tau))

    def test_leading_pulse_borrows_from_trailing_delay(self):
        tau, tw = 4e-6, 1.5e-6
        seq = builtin("YXX24")
        steps = schedule(seq, tau, tw)
        assert steps[0][0] == "pulse"
        frees = [v for k, v in steps if k == "free"]
        assert len(frees) == 24
        assert all(f == pytest.approx(tau - tw) for f in frees)
        total = sum(frees) + seq.n_pulses * tw
        assert total == pytest.approx(seq.cycle_time(tau))

    def test_pulse_width_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            schedule(builtin("WHH"), 4e-6, 5e-6)

    def test_full_window_pulse_drops_zero_free_steps(self):
        steps = schedule(builtin("YXX24"), 4e-6, 4e-6)
        assert all(kind == "pulse" for kind, _ in steps)

    def test_pulses_alone_take_no_width(self):
        # four x pulses make -I with no delay window to hold a finite pulse
        seq = parse_sequence("x - x - x - x")
        assert schedule(seq, 4e-6) == [("pulse", 0.0)] * 4
        with pytest.raises(ValueError, match="need at least one delay window"):
            schedule(seq, 4e-6, 1e-6)

    def test_leading_pulse_width_must_fit_the_trailing_window(self):
        # the 2tau window holds the -x pulse; the trailing tau cannot lend the leading pulse its width
        seq = parse_sequence("x - 2tau - -x - tau")
        assert schedule(seq, 4e-6, 4e-6) == [("pulse", 0.0), ("free", 4e-6), ("pulse", 180.0)]
        with pytest.raises(ValueError, match="does not fit in the trailing"):
            schedule(seq, 4e-6, 5e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule(builtin("WHH"), 0.0)
        with pytest.raises(ValueError):
            schedule(builtin("WHH"), 4e-6, -1e-9)
