"""Sweep configuration, figure presets, and result persistence.

A sweep is described by a single JSON document; :func:`validate_config`
applies defaults, checks bounds, and returns both the normalized document
(which round-trips through the loader) and the executable sweep spec.
Result files embed the resolved configuration and its SHA-256 digest, so
every output is self-describing, and all float formatting is shortest
round-trip, so reruns with the same seed are byte-identical regardless of
the parallelism degree.

Presets mirror the simulation figures; each carries a full-size ``paper``
profile and a desk-scale ``ci`` profile.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aht import magnus_series, term_magnitudes
from .control import (
    DISORDER_SEED_OFFSET,
    SWEEPABLE_PARAMETERS,
    SweepRow,
    SweepSpec,
    ensemble_fidelity,
    nth_order_fidelities,
)
from .operators import MAX_SPINS, frobenius_magnitude
from .sequences import BUILTIN_NAMES, builtin, schedule
from .spins import (
    DEFAULT_COUPLING_SIGMA_HZ,
    SpinSystem,
    dipolar_hamiltonian,
    sample_couplings,
)

__all__ = [
    "ConfigError",
    "NormalizedConfig",
    "validate_config",
    "config_digest",
    "provenance",
    "csv_text",
    "run_sweep",
    "sweep_rows_to_csv",
    "sweep_rows_to_json",
    "write_output",
    "PRESET_NAMES",
    "run_preset",
]

# The config document names each SweepSpec field by its own name, except
# these two, which carry their unit.
_DOCUMENT_NAMES = {"tau": "tau_s", "pulse_width": "pulse_width_s"}


def _document_name(name: str) -> str:
    return _DOCUMENT_NAMES.get(name, name)


# document name -> SweepSpec field, for every field after the swept parameter and grid
_FIELDS = {_document_name(f.name): f for f in dataclasses.fields(SweepSpec)[2:]}
_SWEEPABLE = {_document_name(name): name for name in SWEEPABLE_PARAMETERS}
_DEFAULT_SWEEP = {"parameter": "tau_s", "grid": [2e-6, 4e-6, 8e-6]}
_POSITIVE = ("n_coupling_sets", "n_disorder_samples", "coupling_sigma_hz", "tau")
_NONNEGATIVE = ("disorder_sigma_hz", "pulse_width", "transient", "base_seed")
_SEED_LIMIT = 1 << 128  # Philox keys (spins.sample_couplings, sample_disorder)

CSV_COLUMNS = ("sweep_param", "value", "sequence", "mean_infidelity", "stddev", "n_samples")


class ConfigError(ValueError):
    """Aggregated configuration problems, one human-readable line each."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class NormalizedConfig:
    """A validated configuration: canonical document plus executable spec."""

    document: dict
    spec: SweepSpec


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _value_problem(field: dataclasses.Field, value, values: dict | None = None) -> str | None:
    """What is wrong with ``value`` as a value of a SweepSpec ``field``, or None.

    A field whose default is an int takes an int, any other a finite number;
    bools are neither.  ``values`` holds the fields checked before this one:
    every Philox key the ensemble draws, ``base_seed + set`` and
    ``base_seed + DISORDER_SEED_OFFSET + sample``, must stay below 2**128.
    """
    name = field.name
    if isinstance(field.default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            return "must be an integer"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    elif not abs(value) <= sys.float_info.max:
        return "is non-finite"
    if name == "n_spins" and not 2 <= value <= MAX_SPINS:
        return f"must be in 2..{MAX_SPINS}"
    if name in _POSITIVE and not value > 0:
        return "must be positive"
    if name in _NONNEGATIVE and value < 0:
        return "must be nonnegative"
    if name == "base_seed":
        values = values or {}
        last_key = value + max(
            values.get("n_coupling_sets", 1) - 1,
            DISORDER_SEED_OFFSET + values.get("n_disorder_samples", 1) - 1,
        )
        if last_key >= _SEED_LIMIT:
            return "plus the ensemble's seed offsets must stay below 2**128"
    return None


def validate_config(doc: dict | None) -> NormalizedConfig:
    """Apply defaults and validate a sweep-config document.

    The document holds every SweepSpec field under its own name (``tau_s``
    and ``pulse_width_s`` for ``tau`` and ``pulse_width``) with its default,
    plus ``sweep``: the swept field and its grid.  One rule per field checks
    each value and grid value, and each pulse must fit its window
    (:func:`spinweave.sequences.schedule`) at each grid point.  Raises
    :class:`ConfigError` carrying every detected problem.  The returned
    document re-validates to an identical config (round-trip).
    """
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ConfigError([f"config must be an object, got {type(doc).__name__}"])
    errors: list[str] = []
    unknown = set(doc) - set(_FIELDS) - {"sweep"}
    if unknown:
        errors.append(f"unknown fields: {', '.join(sorted(map(str, unknown)))}")

    values = {}
    for key, f in _FIELDS.items():
        value = doc.get(key, f.default)
        if f.name == "sequences":
            if not isinstance(value, (list, tuple)) or not value or not all(
                isinstance(v, str) and v.upper() in BUILTIN_NAMES for v in value
            ):
                errors.append(
                    f"sequences must be a nonempty list of {BUILTIN_NAMES}, got {value!r}"
                )
                continue
            value = tuple(v.upper() for v in value)
        elif problem := _value_problem(f, value, values):
            errors.append(f"{key} {problem}, got {value!r}")
            continue
        else:
            value = type(f.default)(value)
        values[f.name] = value

    sweep = doc.get("sweep", _DEFAULT_SWEEP)
    parameter, grid = None, []
    if not isinstance(sweep, dict) or set(sweep) - {"parameter", "grid"}:
        errors.append("sweep must be an object with fields 'parameter' and 'grid'")
    else:
        parameter = sweep.get("parameter")
        if not isinstance(parameter, str) or parameter not in _SWEEPABLE:
            errors.append(
                f"sweep.parameter must be one of {sorted(_SWEEPABLE)}, got {parameter!r}"
            )
            parameter = None
        grid = sweep.get("grid", [])
        if not isinstance(grid, (list, tuple)):
            errors.append(f"sweep.grid must be a list, got {grid!r}")
        elif not grid:
            errors.append("sweep.grid is empty")
        elif parameter is not None:
            problems = [(v, _value_problem(_FIELDS[parameter], v)) for v in grid]
            errors += [f"sweep.grid value for {parameter} {p}, got {v!r}" for v, p in problems if p]
            if not any(p for _, p in problems):
                grid = [float(v) for v in grid]
                if any(b <= a for a, b in zip(grid, grid[1:])):
                    errors.append("sweep.grid must be strictly increasing")
    if errors:
        raise ConfigError(errors)

    spec = SweepSpec(parameter=_SWEEPABLE[parameter], grid=tuple(grid), **values)
    points = [dataclasses.replace(spec, **{spec.parameter: v}) for v in spec.grid]
    for name in spec.sequences:
        for point in points:
            try:
                schedule(builtin(name), point.tau, point.pulse_width)
            except ValueError as exc:
                errors.append(str(exc))
                break
    if errors:
        raise ConfigError(errors)

    # SweepSpec order, with the sweep before base_seed: JSON results keep this key order
    document = {
        _document_name(name): list(value) if name == "sequences" else value
        for name, value in values.items()
        if name != "base_seed"
    }
    document["sweep"] = {"parameter": parameter, "grid": grid}
    document["base_seed"] = values["base_seed"]
    return NormalizedConfig(document=document, spec=spec)


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_digest(document: dict) -> str:
    return hashlib.sha256(_canonical(document).encode()).hexdigest()


def provenance(document: dict) -> dict:
    """The ``config`` and ``config_sha256`` entries that head every result file."""
    return {"config": document, "config_sha256": config_digest(document)}


def csv_text(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
    document: dict | None = None,
) -> str:
    """CSV text, floats written shortest round-trip.

    With a ``document``, comment lines first give the ``title`` and the
    :func:`provenance` of the document, in canonical JSON.
    """
    lines = []
    if document is not None:
        entries = provenance(document)
        lines += [
            f"# {title}",
            "# config: " + _canonical(entries["config"]),
            "# config_sha256: " + entries["config_sha256"],
        ]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def run_sweep(config: NormalizedConfig, threads: int | None = None) -> list[SweepRow]:
    return ensemble_fidelity(config.spec, threads=threads)


def _row_cells(r: SweepRow) -> tuple:
    return (_document_name(r.parameter), r.value, r.sequence, r.mean_infidelity, r.stddev, r.n_samples)


def sweep_rows_to_csv(config: NormalizedConfig, rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV with the resolved config embedded in comments."""
    return csv_text(
        CSV_COLUMNS, map(_row_cells, rows), "spinweave sweep result", config.document
    )


def sweep_rows_to_json(config: NormalizedConfig, rows: list[SweepRow]) -> dict:
    return {
        **provenance(config.document),
        "columns": list(CSV_COLUMNS),
        "rows": [list(_row_cells(r)) for r in rows],
    }


def write_output(path: str | Path, text: str) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write result file {path}: {exc}") from exc
    return path


def _geomgrid(lo: float, hi: float, n: int) -> list[float]:
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _sweep_preset(name: str, profile: str) -> dict:
    paper = profile == "paper"
    spins = 8 if paper else 4
    sets = 16 if paper else 8
    base: dict = {"n_spins": spins, "n_coupling_sets": sets, "base_seed": 2026}
    if name == "fig2a":
        base["sweep"] = {
            "parameter": "tau_s",
            "grid": _geomgrid(1e-6, 4e-5, 10 if paper else 8),
        }
    elif name == "fig2b":
        base["tau_s"] = 4e-6
        base["sweep"] = {"parameter": "pulse_width_s", "grid": _geomgrid(1e-7, 3e-6, 8)}
    elif name in ("fig6a", "fig6b"):
        base["n_coupling_sets"] = 1
        base["n_disorder_samples"] = 100 if paper else 20
        base["tau_s"] = 4e-6
        if name == "fig6b":
            base["pulse_width_s"] = 1e-6
        base["sweep"] = {
            "parameter": "disorder_sigma_hz",
            "grid": _geomgrid(0.5, 5000.0, 9 if paper else 7),
        }
    elif name == "figA2":
        base["tau_s"] = 4e-6
        base["sweep"] = {
            "parameter": "global_offset_hz",
            "grid": _geomgrid(0.5, 5000.0, 9 if paper else 7),
        }
    elif name == "fig8a":
        base["tau_s"] = 4e-6
        base["pulse_width_s"] = 1e-6
        base["sweep"] = {"parameter": "rotation_error", "grid": _geomgrid(1e-3, 0.2, 8)}
    elif name == "fig8b":
        base["tau_s"] = 4e-6
        base["pulse_width_s"] = 1e-6
        base["sweep"] = {"parameter": "transient", "grid": _geomgrid(1e-3, 0.2, 8)}
    else:
        raise ValueError(f"unknown sweep preset {name!r}")
    return base


def _magnitude_report(system_dipolar, system_offset, system_full, seq, tau, h_dip):
    """Dipolar orders 0-4, offset orders 0-1, and the order-1 cross term."""
    dip = magnus_series(system_dipolar, seq, tau, 4)
    off = magnus_series(system_offset, seq, tau, 1)
    full = magnus_series(system_full, seq, tau, 1)
    scale = frobenius_magnitude(h_dip)
    rows = []
    for order, mag in enumerate(term_magnitudes(dip, h_dip)):
        rows.append({"sequence": seq.name, "term": "dipolar", "order": order, "magnitude": mag})
    for order, mag in enumerate(term_magnitudes(off, h_dip)):
        rows.append({"sequence": seq.name, "term": "offset", "order": order, "magnitude": mag})
    cross = full.terms[1] - dip.terms[1] - off.terms[1]
    rows.append(
        {
            "sequence": seq.name,
            "term": "cross",
            "order": 1,
            "magnitude": frobenius_magnitude(cross) / scale,
        }
    )
    return rows


def _run_figA3(profile: str, outdir: Path) -> list[Path]:
    # Coupling scale 420 Hz and offset 30 Hz; tau only sets the overall
    # tau**n weighting of each order, not which terms vanish.
    tau = 4e-6
    seed = 2026
    couplings = sample_couplings(seed, 4, 420.0 / 3.0)
    sys_dip = SpinSystem.create(couplings)
    sys_off = SpinSystem.create(np.zeros((4, 4)), global_offset_hz=30.0)
    sys_full = SpinSystem.create(couplings, global_offset_hz=30.0)
    h_dip = dipolar_hamiltonian(sys_dip)
    rows = []
    for name in BUILTIN_NAMES:
        rows.extend(
            _magnitude_report(sys_dip, sys_off, sys_full, builtin(name), tau, h_dip)
        )
    document = {
        "preset": "figA3",
        "profile": profile,
        "n_spins": 4,
        "coupling_sigma_hz": 420.0 / 3.0,
        "global_offset_hz": 30.0,
        "tau_s": tau,
        "base_seed": seed,
    }
    payload = {**provenance(document), "rows": rows}
    return [write_output(outdir / "figA3.json", json.dumps(payload, indent=2) + "\n")]


def _run_figA4(profile: str, outdir: Path) -> list[Path]:
    paper = profile == "paper"
    seed = 2026
    rows = []
    # panels (a)/(b): n-th order fidelity vs tau for representative orders
    panel_specs = [
        ("a", "WHH", 6 if paper else 4, (0, 2, 4)),
        ("b", "BR24", 4, (0, 4, 6)),
    ]
    taus = _geomgrid(2e-6, 2e-5, 6 if paper else 4)
    for panel, seq_name, n_spins, orders in panel_specs:
        seq = builtin(seq_name)
        system = SpinSystem.create(sample_couplings(seed, n_spins, DEFAULT_COUPLING_SIGMA_HZ))
        for tau in taus:
            series = magnus_series(system, seq, tau, max(orders))
            fidelities = nth_order_fidelities(system, seq, tau, orders, series=series)
            for order, f in zip(orders, fidelities):
                rows.append(
                    {
                        "panel": panel,
                        "sequence": seq_name,
                        "tau_s": tau,
                        "order": order,
                        "fidelity": f,
                    }
                )
    # panel (c): WHH F_n vs n at |H| tau = 0.466 with uniform 5 kHz couplings,
    # |H| measured as the RMS eigenvalue (Frobenius / sqrt(dim))
    system = SpinSystem.create(5000.0 * (np.ones((4, 4)) - np.eye(4)))
    h = dipolar_hamiltonian(system)
    tau_c = 0.466 / (frobenius_magnitude(h) / np.sqrt(h.shape[0]))
    n_max = 70 if paper else 16
    seq = builtin("WHH")
    series = magnus_series(system, seq, tau_c, n_max)
    fidelities = nth_order_fidelities(system, seq, tau_c, range(n_max + 1), series=series)
    for order, f in enumerate(fidelities):
        rows.append(
            {
                "panel": "c",
                "sequence": "WHH",
                "tau_s": tau_c,
                "order": order,
                "fidelity": f,
            }
        )
    document = {"preset": "figA4", "profile": profile, "base_seed": seed, "max_order": n_max}
    payload = {**provenance(document), "rows": rows}
    return [write_output(outdir / "figA4.json", json.dumps(payload, indent=2) + "\n")]


_SWEEP_PRESETS = ("fig2a", "fig2b", "fig6a", "fig6b", "figA2", "fig8a", "fig8b")
PRESET_NAMES = _SWEEP_PRESETS + ("figA3", "figA4")


def run_preset(
    name: str, profile: str = "ci", outdir: str | Path = ".", threads: int | None = None
) -> list[Path]:
    """Run a figure preset and write its result files into ``outdir``."""
    if profile not in ("paper", "ci"):
        raise ConfigError([f"profile must be 'paper' or 'ci', got {profile!r}"])
    outdir = Path(outdir)
    if name in _SWEEP_PRESETS:
        config = validate_config(_sweep_preset(name, profile))
        rows = run_sweep(config, threads=threads)
        path = write_output(outdir / f"{name}.csv", sweep_rows_to_csv(config, rows))
        return [path]
    if name == "figA3":
        return _run_figA3(profile, outdir)
    if name == "figA4":
        return _run_figA4(profile, outdir)
    raise ConfigError([f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}"])
