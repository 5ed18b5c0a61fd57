"""Input contract of the public entry points.

Given nan, +/-inf or a value outside its documented range, every entry
point raises ``ValueError`` or returns finite values; none returns a
silently wrong (non-finite) answer.  SweepSpec is the one validation
boundary of a sweep: the same rule rejects a value whether it comes
through the Python API or a config document.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave.aht import burum_terms, magnus_series
from spinweave.control import (
    DISORDER_SEED_OFFSET,
    IDEAL,
    SWEEPABLE_PARAMETERS,
    ConfigError,
    ErrorModel,
    NumericalDiagnosticError,
    SweepSpec,
    cycle_unitary,
    ensemble_fidelity,
    fidelity,
    nth_order_fidelities,
    unitary_root,
)
from spinweave.experiments import (
    DecayCurve,
    FreeWindow,
    MqcResult,
    ProtectedWindow,
    autocorrelation,
    mqc_experiment,
)
from spinweave.harness import validate_config
from spinweave.sequences import builtin, schedule
from spinweave.spins import SpinSystem, sample_couplings, sample_disorder

# an overflow inside a check is a failure, not a warning beside a result
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False, allow_nan=False)
NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False, allow_nan=False)
NOT_AN_INT = st.booleans() | st.floats(allow_nan=False) | st.none() | st.text(max_size=3)
# finite values whose pulse angle, (pi/2)(1 + value) or (pi/2) value, overflows
HUGE = st.floats(min_value=1.2e308, allow_infinity=False)
OVERFLOWING = HUGE | HUGE.map(lambda v: -v)

# SweepSpec field -> values its rule rejects
BAD_VALUES = {
    "n_spins": st.integers(max_value=1) | st.integers(min_value=11) | NOT_AN_INT,
    "n_coupling_sets": st.integers(max_value=0) | NOT_AN_INT,
    "n_disorder_samples": st.integers(max_value=0) | NOT_AN_INT,
    "base_seed": st.integers(max_value=-1)
    | st.integers(min_value=2**128 - DISORDER_SEED_OFFSET)
    | NOT_AN_INT,
    "coupling_sigma_hz": NON_FINITE | NON_POSITIVE,
    "tau": NON_FINITE | NON_POSITIVE,
    "pulse_width": NON_FINITE | NEGATIVE,
    "disorder_sigma_hz": NON_FINITE | NEGATIVE,
    "transient": NON_FINITE | NEGATIVE | HUGE,
    "global_offset_hz": NON_FINITE,
    "rotation_error": NON_FINITE | OVERFLOWING,
}
# A small valid sweep; each test breaks one field of it.
BASE = dict(parameter="rotation_error", grid=(0.0,), sequences=("WHH",), n_spins=2, n_coupling_sets=1)
BASE_DOC = {
    "sequences": ["WHH"],
    "n_spins": 2,
    "n_coupling_sets": 1,
    "sweep": {"parameter": "rotation_error", "grid": [0.0]},
}
DOCUMENT_NAMES = {"tau": "tau_s", "pulse_width": "pulse_width_s"}


def test_bad_values_cover_every_numeric_field():
    assert set(BAD_VALUES) == {f.name for f in dataclasses.fields(SweepSpec)[3:]}


def rejects_or_finite(call):
    """Run ``call``: it raises ValueError, or every number it returns is finite."""
    try:
        result = call()
    except ValueError:
        return
    if isinstance(result, DecayCurve):
        result = [result.times, result.values]
    elif isinstance(result, MqcResult):
        result = [result.spectrum.intensities, result.signals]
    elif isinstance(result, SpinSystem):
        result = [result.couplings_hz, result.total_offsets_hz]
    elif isinstance(result, list):  # schedule steps
        result = [value for _, value in result]
    for value in result if isinstance(result, list) else [result]:
        assert np.all(np.isfinite(value)), result


class TestSweepSpecBoundary:
    @pytest.mark.parametrize("name", sorted(BAD_VALUES))
    @given(data=st.data())
    def test_field_rejected_by_api_and_document(self, name, data):
        bad = data.draw(BAD_VALUES[name])
        with pytest.raises(ConfigError, match=name) as api:
            SweepSpec(**{**BASE, name: bad})
        assert isinstance(api.value, ValueError)
        key = DOCUMENT_NAMES.get(name, name)
        with pytest.raises(ConfigError, match=key):
            validate_config({**BASE_DOC, key: bad})

    @pytest.mark.parametrize("parameter", SWEEPABLE_PARAMETERS)
    @given(data=st.data())
    def test_grid_value_rejected_by_api_and_document(self, parameter, data):
        bad = data.draw(BAD_VALUES[parameter])
        with pytest.raises(ConfigError, match=f"{parameter} grid value"):
            SweepSpec(**{**BASE, "parameter": parameter, "grid": (bad,)})
        key = DOCUMENT_NAMES.get(parameter, parameter)
        with pytest.raises(ConfigError, match=f"{key} grid value"):
            validate_config({**BASE_DOC, "sweep": {"parameter": key, "grid": [bad]}})

    def test_document_names_fields_as_it_spells_them(self):
        with pytest.raises(ConfigError) as err:
            validate_config(
                {**BASE_DOC, "tau_s": -1.0, "sweep": {"parameter": "tau_s", "grid": [2e-6, 1e-6]}}
            )
        assert err.value.errors == ["tau_s must be positive, got -1.0", "sweep.grid must be strictly increasing"]
        with pytest.raises(ConfigError) as err:
            validate_config({**BASE_DOC, "sweep": {"parameter": "pulse_width_s", "grid": [-1e-6]}})
        assert err.value.errors == ["pulse_width_s grid value must be nonnegative, got -1e-06"]

    def test_document_rejects_the_api_spelling_of_a_swept_field(self):
        with pytest.raises(ConfigError, match="sweep.parameter must be one of"):
            validate_config({**BASE_DOC, "sweep": {"parameter": "tau", "grid": [4e-6]}})

    def test_normalizes_sequences_and_numbers(self):
        spec = SweepSpec(**{**BASE, "sequences": ["whh", "Cory48"], "grid": [1], "tau": 4e-6, "n_spins": np.int64(3)})
        assert spec.sequences == ("WHH", "CORY48")
        assert spec.grid == (1.0,) and type(spec.grid[0]) is float
        assert type(spec.n_spins) is int and type(spec.tau) is float


class TestMotivatingDefects:
    """Each of these was once accepted by the Python API though the CLI rejected it."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("disorder_sigma_hz", -500.0),  # ran the zero-disorder ensemble, labelled -500 Hz
            ("transient", -0.05),
            ("n_spins", True),
            ("n_coupling_sets", 2.5),
            ("rotation_error", -1.7e308),  # ran a whole cycle, then "defect nan" (exit 3)
            ("transient", 1.7e308),
        ],
    )
    def test_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec("disorder_sigma_hz", (0.0,), ("WHH",), **{"n_spins": 3, "n_coupling_sets": 1, field: value})

    @pytest.mark.parametrize("grid", [(4e-6, 2e-6), (2e-6, 2e-6)])
    def test_grid_must_increase(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec("tau", grid, ("WHH",), n_spins=3, n_coupling_sets=1)

    @pytest.mark.parametrize(
        "field,value",
        [("rotation_error", -1.7e308), ("transient_leading", 1.7e308), ("transient_trailing", -1.7e308)],
    )
    def test_overflowing_pulse_angle_rejected_when_built(self, field, value):
        # the cycle once ran to a nan defect: cos of an infinite angle in collective_rotation
        with pytest.raises(ValueError, match=f"{field} overflows its rotation angle"):
            cycle_unitary(SYSTEM, WHH, ErrorModel(**{field: value}))

    def test_negative_tau_dq_rejected(self):
        # once returned a spectrum, though the CLI's --tau-dq rejects it
        with pytest.raises(ValueError, match="tau_dq must be finite and nonnegative"):
            mqc_experiment(SYSTEM, -1e-4)

    @pytest.mark.parametrize("block", [2.5, True, math.inf, math.nan, -1, 10**20])
    def test_bad_block_count_rejected(self, block):
        # 2.5 and True were cast to 2 and 1, inf raised OverflowError, and
        # 10**20 ran matrix_power to "times and values must be finite"
        expected = f"block counts must be integers in 0..2**53, got {block!r}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            autocorrelation(SYSTEM, WHH, IDEAL, 4e-6, "x", [0, block])

    @pytest.mark.parametrize("fields", [{"pulse_width": 1e-320}, {"pulse_width": 1e-6, "rotation_error": 1e305}])
    def test_overflowing_pulse_drive_is_finite(self, fields):
        # both pulse angles are finite, but the drive (pi/2)(1 + rotation_error)
        # / pulse_width is not; the cycle once ended in "matrix is not Hermitian
        # (relative asymmetry nan)".  A pulse is built from its angle and
        # h_int t_w, so the drive is never formed
        u = cycle_unitary(SYSTEM, WHH, ErrorModel(**fields))
        assert np.isfinite(u).all()
        assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-12

    @pytest.mark.parametrize(
        "parameter,grid,fields",
        [
            ("pulse_width", (1e-320, 1e-6), {}),
            ("rotation_error", (0.0, 1e305), {"pulse_width": 1e-6}),
            ("tau", (4e-6,), {"pulse_width": 1e-320}),
        ],
    )
    def test_sweep_with_overflowing_pulse_drive_is_finite(self, parameter, grid, fields):
        spec = SweepSpec(parameter, grid, ("WHH",), n_spins=3, n_coupling_sets=1, **fields)
        rows = ensemble_fidelity(spec, threads=1)
        assert len(rows) == len(grid)
        assert all(math.isfinite(r.mean_infidelity) and 0.0 <= r.mean_infidelity <= 1.0 for r in rows)

    def test_absurd_pulse_width_is_a_diagnostic(self):
        # h_int t_w overflows: an explicit diagnostic, not nan
        with pytest.raises(NumericalDiagnosticError, match="pulse generator h_int t_w overflows"):
            cycle_unitary(SYSTEM, WHH, ErrorModel(pulse_width=1e306), tau=1e306)

    @pytest.mark.parametrize(
        "fields,message",
        [
            # once "LinAlgError: Eigenvalues did not converge"
            ({"coupling_sigma_hz": 1e307}, "eigh of a finite Hermitian generator failed"),
            # 2 pi d or 2 pi a overflowed: once "not Hermitian (relative asymmetry nan)"
            ({"coupling_sigma_hz": 6e307}, "Hamiltonian elements overflow"),
            ({"global_offset_hz": 1e308}, "Hamiltonian elements overflow"),
            ({"disorder_sigma_hz": 1e308}, "Hamiltonian elements overflow"),
            # a draw overflowed: once "couplings_hz must be finite"
            ({"coupling_sigma_hz": 1e308}, "coupling draws overflow"),
        ],
    )
    def test_sweep_whose_hamiltonian_overflows_is_a_diagnostic(self, fields, message):
        # finite fields whose draws or Hamiltonian overflow once ended in a traceback (exit 1)
        spec = SweepSpec("tau", (2e-6, 4e-6), ("WHH",), n_spins=4, n_coupling_sets=2, **fields)
        with pytest.raises(NumericalDiagnosticError, match=message):
            ensemble_fidelity(spec, threads=1)

    def test_overflowing_offset_and_coupling_draw_are_diagnostics(self):
        # `exp autocorr --offset-hz 1e308` and `exp mqc --coupling-sigma-hz 1e308` once exited 1
        with pytest.raises(NumericalDiagnosticError, match="Hamiltonian elements overflow"):
            autocorrelation(SpinSystem.create(SYSTEM.couplings_hz, global_offset_hz=1e308), WHH, IDEAL, 4e-6, "x", [0, 1])
        with pytest.raises(NumericalDiagnosticError, match="coupling draws overflow"):
            sample_couplings(3, 4, 1.7e308)
        with pytest.raises(NumericalDiagnosticError, match="disorder draws overflow"):
            sample_disorder(3, 4, 1.79e308)

    def test_large_finite_couplings_stay_finite(self):
        # (d + d.T) / 2 once stored inf for couplings above half the largest float
        system = SpinSystem.create([[0.0, 1.5e308], [1.5e308, 0.0]])
        assert system.couplings_hz[0, 1] == 1.5e308
        with pytest.raises(NumericalDiagnosticError, match="Hamiltonian elements overflow"):
            cycle_unitary(system, WHH)

    def test_overflowing_parity_blocks_are_a_diagnostic(self):
        # H_D^(x) is finite, but a parity-block element of 4 spins sums the
        # double-quantum elements 0.75 (2 pi d) of pairs (0, 1) and (2, 3)
        couplings = np.zeros((4, 4))
        couplings[0, 1] = couplings[1, 0] = couplings[2, 3] = couplings[3, 2] = 2.4e307
        with pytest.raises(NumericalDiagnosticError, match="parity blocks of H_D overflow"):
            cycle_unitary(SpinSystem.create(couplings), WHH)

    def test_seed_beyond_philox_keys_rejected_before_any_draw(self):
        # the second coupling set's key, base_seed + 1, is 2**128
        with pytest.raises(ValueError, match="base_seed"):
            SweepSpec("tau", (4e-6,), ("WHH",), n_spins=3, n_coupling_sets=2, base_seed=2**128 - 1)


SYSTEM = SpinSystem.create(sample_couplings(3, 3, 1000.0))
WHH = builtin("WHH")
LARGEST = np.finfo(float).max


@given(bad=NON_FINITE)
def test_spin_system(bad):
    couplings = SYSTEM.couplings_hz.copy()
    couplings[0, 1] = couplings[1, 0] = bad
    rejects_or_finite(lambda: SpinSystem.create(couplings))
    rejects_or_finite(lambda: SpinSystem.create(SYSTEM.couplings_hz, chemical_shifts_hz=[0.0, bad, 0.0]))
    rejects_or_finite(lambda: SpinSystem.create(SYSTEM.couplings_hz, disorder_hz=[bad, 0.0, 0.0]))
    rejects_or_finite(lambda: SpinSystem.create(SYSTEM.couplings_hz, global_offset_hz=bad))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ErrorModel)])
@given(data=st.data())
def test_error_model_and_cycle(field, data):
    bad = data.draw(NON_FINITE | NEGATIVE if field == "pulse_width" else NON_FINITE | OVERFLOWING)
    rejects_or_finite(lambda: cycle_unitary(SYSTEM, WHH, ErrorModel(**{field: bad})))


@given(bad=NON_FINITE | NON_POSITIVE)
def test_schedule_and_cycle_tau(bad):
    rejects_or_finite(lambda: schedule(WHH, bad))
    rejects_or_finite(lambda: schedule(WHH, 4e-6, bad))
    rejects_or_finite(lambda: cycle_unitary(SYSTEM, WHH, IDEAL, bad))


@given(
    sigma=NON_FINITE | NON_POSITIVE,
    disorder_sigma=NON_FINITE | NEGATIVE,
    seed=st.integers(max_value=-1) | st.integers(min_value=2**128),
)
def test_samplers(sigma, disorder_sigma, seed):
    rejects_or_finite(lambda: sample_couplings(1, 3, sigma))
    rejects_or_finite(lambda: sample_disorder(1, 3, disorder_sigma))
    rejects_or_finite(lambda: sample_couplings(seed, 3, 1000.0))
    rejects_or_finite(lambda: sample_disorder(seed, 3, 10.0))


@given(bad=NON_FINITE | NEGATIVE, cycles=st.integers(max_value=-1) | NOT_AN_INT, tau_dq=NON_FINITE | NEGATIVE)
def test_windows_and_mqc(bad, cycles, tau_dq):
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=FreeWindow(bad)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=ProtectedWindow(WHH, 2, bad)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=ProtectedWindow(WHH, cycles)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, tau_dq))


@given(blocks=st.lists(st.integers(-(2**60), 2**60) | NOT_AN_INT | NON_FINITE, max_size=4))
def test_autocorrelation_blocks(blocks):
    rejects_or_finite(lambda: autocorrelation(SYSTEM, WHH, IDEAL, 4e-6, "x", blocks))


@given(phi_count=st.integers(max_value=7) | NOT_AN_INT | NON_FINITE)
def test_mqc_phi_count(phi_count):
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, phi_count=phi_count))


def test_overflowing_phase_is_a_diagnostic_not_nan():
    # exp(-i h t) at the largest float once gave an all-nan MQC spectrum
    with pytest.raises(NumericalDiagnosticError, match="overflow"):
        mqc_experiment(SYSTEM, LARGEST)
    with pytest.raises(NumericalDiagnosticError, match="overflow"):
        mqc_experiment(SYSTEM, 1e-4, window=FreeWindow(LARGEST))


@pytest.mark.parametrize("m", [math.inf, math.nan, 10**400, 2.5, 0, -1])
def test_root_order(m):
    # inf and 10**400 once raised OverflowError, nan numpy's own conversion error
    u = cycle_unitary(SYSTEM, WHH)
    with pytest.raises(ValueError, match="root order"):
        fidelity(u, m=m)
    with pytest.raises(ValueError, match="root order"):
        unitary_root(u, m)


@pytest.mark.parametrize(
    "order,message",
    [
        (2.5, "orders must be >= 0"),
        (math.nan, "orders must be >= 0"),
        (-1, "orders must be >= 0"),
        (math.inf, "cap"),
        (73, "cap"),
        (10**400, "cap"),
    ],
)
def test_magnus_order(order, message):
    # 2.5 and nan once raised TypeError inside the Dyson recursion or the partial sum
    with pytest.raises(ValueError, match=message):
        magnus_series(SYSTEM, WHH, 4e-6, order)
    with pytest.raises(ValueError, match=message):
        nth_order_fidelities(SYSTEM, WHH, 4e-6, [order])
    with pytest.raises(ValueError, match="order"):
        nth_order_fidelities(SYSTEM, WHH, 4e-6, [order], series=magnus_series(SYSTEM, WHH, 4e-6, 3))


def test_overflowing_magnus_terms_are_a_diagnostic_not_nan():
    # H t at tau = 1e60 s once gave nan terms 1-4
    with pytest.raises(NumericalDiagnosticError, match="Dyson terms through order 5 overflow"):
        magnus_series(SpinSystem.create(sample_couplings(2026, 4, 140.0)), WHH, 1e60, 4)
    # finite Dyson terms whose products in the Magnus recursion overflow
    with pytest.raises(NumericalDiagnosticError, match="Magnus terms through order 2 overflow"):
        burum_terms([np.full((2, 2), 1e200)] * 3, 1.0)


@given(bad=NON_FINITE, index=st.integers(0, 5), in_values=st.booleans())
def test_decay_curve(bad, index, in_values):
    times = np.arange(6.0)
    values = np.exp(-times)
    (values if in_values else times)[index] = bad
    rejects_or_finite(lambda: DecayCurve(times, values, "x"))

