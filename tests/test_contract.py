"""Input contract of the public entry points.

Given nan, +/-inf or a value outside its documented range, every entry
point raises ``ValueError`` or returns finite values; none returns a
silently wrong (non-finite) answer.  SweepSpec is the one validation
boundary of a sweep: the same rule rejects a value whether it comes
through the Python API or a config document.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinweave.control import (
    DISORDER_SEED_OFFSET,
    IDEAL,
    SWEEPABLE_PARAMETERS,
    ConfigError,
    ErrorModel,
    NumericalDiagnosticError,
    SweepSpec,
    cycle_unitary,
)
from spinweave.experiments import (
    DecayCurve,
    FreeWindow,
    MqcResult,
    ProtectedWindow,
    mqc_experiment,
)
from spinweave.harness import validate_config
from spinweave.sequences import builtin, schedule
from spinweave.spins import SpinSystem, sample_couplings, sample_disorder

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False, allow_nan=False)
NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False, allow_nan=False)
NOT_AN_INT = st.booleans() | st.floats(allow_nan=False) | st.none() | st.text(max_size=3)

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
    "transient": NON_FINITE | NEGATIVE,
    "global_offset_hz": NON_FINITE,
    "rotation_error": NON_FINITE,
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
        ],
    )
    def test_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec("disorder_sigma_hz", (0.0,), ("WHH",), **{"n_spins": 3, "n_coupling_sets": 1, field: value})

    @pytest.mark.parametrize("grid", [(4e-6, 2e-6), (2e-6, 2e-6)])
    def test_grid_must_increase(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec("tau", grid, ("WHH",), n_spins=3, n_coupling_sets=1)

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
    bad = data.draw(NON_FINITE | NEGATIVE if field == "pulse_width" else NON_FINITE)
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


@given(bad=NON_FINITE | NEGATIVE, cycles=st.integers(max_value=-1) | NOT_AN_INT, tau_dq=NON_FINITE)
def test_windows_and_mqc(bad, cycles, tau_dq):
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=FreeWindow(bad)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=ProtectedWindow(WHH, 2, bad)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, window=ProtectedWindow(WHH, cycles)))
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, tau_dq))


@given(phi_count=st.integers(max_value=7) | NOT_AN_INT | NON_FINITE)
def test_mqc_phi_count(phi_count):
    rejects_or_finite(lambda: mqc_experiment(SYSTEM, 1e-4, phi_count=phi_count))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_overflowing_phase_is_a_diagnostic_not_nan():
    # exp(-i h t) at the largest float once gave an all-nan MQC spectrum
    with pytest.raises(NumericalDiagnosticError, match="overflow"):
        mqc_experiment(SYSTEM, LARGEST)
    with pytest.raises(NumericalDiagnosticError, match="overflow"):
        mqc_experiment(SYSTEM, 1e-4, window=FreeWindow(LARGEST))


@given(bad=NON_FINITE, index=st.integers(0, 5), in_values=st.booleans())
def test_decay_curve(bad, index, in_values):
    times = np.arange(6.0)
    values = np.exp(-times)
    (values if in_values else times)[index] = bad
    rejects_or_finite(lambda: DecayCurve(times, values, "x"))

