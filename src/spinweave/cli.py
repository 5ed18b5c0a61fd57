"""Command-line interface.

Subcommands: ``sweep``, ``seq lint``, ``aht terms``, ``exp autocorr``,
``exp mqc``, ``preset``.  Exit codes: 0 on success, 2 on configuration
errors, 3 on numerical-diagnostic failures (e.g. a propagator that fails
its unitarity check).  ``SPINWEAVE_THREADS`` overrides the parallelism
degree; parallelism never changes numerical results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .aht import magnus_series, term_magnitudes
from .control import ErrorModel, NumericalDiagnosticError, resolve_threads
from .experiments import (
    MIN_FIT_POINTS,
    FreeWindow,
    ProtectedWindow,
    _block_counts,
    autocorrelations,
    c_avg,
    fit_decay,
    mqc_experiment,
    mqc_phi_count,
)
from .harness import (
    ConfigError,
    PRESET_NAMES,
    csv_text,
    provenance,
    run_preset,
    run_sweep,
    sweep_rows_to_csv,
    sweep_rows_to_json,
    validate_config,
    write_output,
)
from .operators import MAX_SPINS, frobenius_magnitude
from .sequences import (
    BUILTIN_NAMES,
    ascii_frame,
    builtin,
    frame_matrix,
    parse_sequence,
    row_sum_check,
    schedule,
    validate_cyclic,
)
from .spins import SpinSystem, dipolar_hamiltonian, sample_couplings

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


class FiniteRange(click.FloatRange):
    """A :class:`click.FloatRange` that also rejects nan, which passes every bound."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not np.isfinite(rv):
            self.fail(f"{rv} is not a finite number", param, ctx)
        return rv


SPINS = click.IntRange(2, MAX_SPINS)
SEED = click.IntRange(min=0)
FINITE = FiniteRange(-np.inf, np.inf, min_open=True, max_open=True)
NONNEGATIVE = FiniteRange(0.0, np.inf, max_open=True)
POSITIVE = FiniteRange(0.0, np.inf, min_open=True, max_open=True)


def _threads(threads: int | None) -> int:
    """``--threads``, else ``SPINWEAVE_THREADS``, else the usable cores; a bad variable is a usage error."""
    try:
        return resolve_threads(threads)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _load_sequence(name_or_file: str):
    key = name_or_file.upper()
    if key in BUILTIN_NAMES:
        return builtin(key)
    path = Path(name_or_file)
    if not path.exists():
        raise click.UsageError(f"{name_or_file!r} is neither a built-in sequence nor a sequence file")
    try:
        return parse_sequence(path.read_text(), name=path.stem)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not the DSL
        raise click.UsageError(f"sequence file {name_or_file!r}: {exc}") from exc


class _Main(click.Group):
    """The command group: a :class:`NumericalDiagnosticError` from any command ends it with exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NumericalDiagnosticError as exc:
            click.echo(f"numerical diagnostic failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL_ERROR)


@click.group(cls=_Main)
def main():
    """Desk-scale dipolar-decoupling sequence simulator."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON sweep configuration (defaults apply when omitted).")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE", help="Override a config field, e.g. --set n_spins=4 or --set sweep.parameter=tau_s (JSON values).")
@click.option("--output", type=click.Path(dir_okay=False), default="sweep.csv", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="Defaults to the output suffix.")
@click.option("--threads", type=click.IntRange(min=1), default=None, help="Worker threads (default: SPINWEAVE_THREADS or the CPUs in the affinity mask).")
def sweep(config_path, overrides, output, fmt, threads):
    """Run a one-parameter ensemble-fidelity sweep."""
    doc = {}
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config file {config_path} is not JSON: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise click.UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {}) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            raise click.UsageError(f"--set {key}: {'.'.join(parts[:-1]) or 'the config'} is not an object")
        target[parts[-1]] = value
    try:
        cfg = validate_config(doc)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    threads = _threads(threads)
    rows = run_sweep(cfg, threads=threads)
    fmt = fmt or ("json" if str(output).endswith(".json") else "csv")
    if fmt == "csv":
        path = write_output(output, sweep_rows_to_csv(cfg, rows))
    else:
        path = write_output(output, json.dumps(sweep_rows_to_json(cfg, rows), indent=2) + "\n")
    click.echo(f"wrote {path}")


@main.group()
def seq():
    """Pulse-sequence tools."""


@seq.command("lint")
@click.argument("source")
def seq_lint(source):
    """Parse and analyze a sequence (built-in name or DSL file).

    Prints the cyclicity sign, window count M, pulse count, the F-matrix as
    an ASCII grid (rows X/Y/Z; '+', '-', '.'), per-row sums, and the
    decoupling class they imply; a non-cardinal phase leaves no F-matrix.
    """
    sequence = _load_sequence(source)
    click.echo(f"sequence: {sequence.name}")
    click.echo(f"windows (M): {sequence.cycle_windows}")
    click.echo(f"pulses: {sequence.n_pulses}")
    try:
        sign = validate_cyclic(sequence)
    except ValueError as exc:
        click.echo(f"cyclic: NO ({exc})")
        sys.exit(EXIT_NUMERICAL_ERROR)
    click.echo(f"cyclic: yes, sign {sign:+d}")
    try:
        fm = frame_matrix(sequence)
    except ValueError as exc:
        click.echo(f"F-matrix: none ({exc})")
        return
    click.echo(ascii_frame(fm))
    sums, label = row_sum_check(fm)
    click.echo(f"row sums (X, Y, Z): {sums.tolist()}")
    click.echo(f"class: {label}")


@main.group(name="aht")
def aht_group():
    """Average-Hamiltonian analysis."""


@aht_group.command("terms")
@click.option("--seq", "seq_name", required=True, help="Built-in name or DSL file.")
@click.option("--orders", type=int, default=4, show_default=True)
@click.option("--spins", type=SPINS, default=4, show_default=True)
@click.option("--coupling-sigma-hz", type=POSITIVE, default=420.0 / 3.0, show_default=True)
@click.option("--offset-hz", type=FINITE, default=0.0, show_default=True)
@click.option("--tau", "tau_s", type=POSITIVE, default=4e-6, show_default=True)
@click.option("--seed", type=SEED, default=2026, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default="-", show_default=True, help="'-' prints to stdout.")
def aht_terms(seq_name, orders, spins, coupling_sigma_hz, offset_hz, tau_s, seed, output):
    """Magnus terms of one cycle as JSON, magnitudes normalized by |H_dip|."""
    sequence = _load_sequence(seq_name)
    system = SpinSystem.create(
        sample_couplings(seed, spins, coupling_sigma_hz), global_offset_hz=offset_hz
    )
    h_dip = dipolar_hamiltonian(system)
    try:
        series = magnus_series(system, sequence, tau_s, orders)
        magnitudes = term_magnitudes(series, h_dip)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rows = []
    for order, term in enumerate(series.terms):
        size = frobenius_magnitude(term)
        rows.append(
            {
                "order": order,
                "magnitude_dipolar_normalized": float(magnitudes[order]),
                "trace_residual": float(abs(np.trace(term)) / max(size, 1e-300)),
                "hermiticity_residual": float(series.hermiticity_residuals[order]),
            }
        )
    document = {
        "sequence": sequence.name,
        "orders": orders,
        "n_spins": spins,
        "coupling_sigma_hz": coupling_sigma_hz,
        "global_offset_hz": offset_hz,
        "tau_s": tau_s,
        "base_seed": seed,
    }
    text = json.dumps({**provenance(document), "terms": rows}, indent=2)
    if output == "-":
        click.echo(text)
    else:
        click.echo(f"wrote {write_output(output, text + chr(10))}")


@main.group()
def exp():
    """Simulated experiments."""


@exp.command("autocorr")
@click.option("--seq", "seq_name", required=True)
@click.option("--spins", type=SPINS, default=4, show_default=True)
@click.option("--tau", "tau_s", type=POSITIVE, default=4e-6, show_default=True)
@click.option("--pulse-width", type=NONNEGATIVE, default=0.0, show_default=True)
@click.option("--offset-hz", type=FINITE, default=0.0, show_default=True)
@click.option("--coupling-sigma-hz", type=POSITIVE, default=5000.0 / 3.0, show_default=True)
@click.option("--seed", type=SEED, default=2026, show_default=True)
@click.option("--blocks", default="0,1,2,4,8,16,32,64", show_default=True, help="Comma-separated cycle counts N; samples are taken at t = N*t_c.")
@click.option("--fit", "fit_model", type=click.Choice(["stretched", "oscillating"]), default=None, help="Also fit C_avg and write the result as JSON.")
@click.option("--output", type=click.Path(dir_okay=False), default="autocorr.csv", show_default=True)
def exp_autocorr(seq_name, spins, tau_s, pulse_width, offset_hz, coupling_sigma_hz, seed, blocks, fit_model, output):
    """X/Y/Z autocorrelation decay curves and their geometric mean.

    CSV columns: time_s, c_xx, c_yy, c_zz, c_avg (normalized to 1 at t=0).
    With --fit, writes <output>.fit.json holding the C_avg fit parameters.
    """
    sequence = _load_sequence(seq_name)
    try:
        schedule(sequence, tau_s, pulse_width)
        error = ErrorModel(pulse_width=pulse_width)
    except ValueError as exc:
        raise click.UsageError(f"--pulse-width: {exc}") from exc
    try:
        block_list = [int(b) for b in blocks.split(",") if b.strip() != ""]
        n_points = len(_block_counts(block_list))
    except ValueError as exc:
        raise click.UsageError(f"bad --blocks value: {exc}") from exc
    if fit_model and n_points < MIN_FIT_POINTS:
        raise click.UsageError(
            f"--fit needs at least {MIN_FIT_POINTS} distinct --blocks values, got {n_points}"
        )
    system = SpinSystem.create(
        sample_couplings(seed, spins, coupling_sigma_hz), global_offset_hz=offset_hz
    )
    curves = autocorrelations(system, sequence, error, tau_s, "xyz", block_list)
    avg = c_avg(curves["x"], curves["y"], curves["z"])
    document = {
        "sequence": sequence.name,
        "n_spins": spins,
        "tau_s": tau_s,
        "pulse_width_s": pulse_width,
        "global_offset_hz": offset_hz,
        "coupling_sigma_hz": coupling_sigma_hz,
        "base_seed": seed,
        "blocks": block_list,
    }
    text = csv_text(
        ("time_s", "c_xx", "c_yy", "c_zz", "c_avg"),
        zip(avg.times, curves["x"].values, curves["y"].values, curves["z"].values, avg.values),
        "spinweave autocorrelation",
        document,
    )
    path = write_output(output, text)
    click.echo(f"wrote {path}")
    if fit_model:
        result = fit_decay(avg, model=fit_model)
        fit_doc = {
            "config": document,
            "model": result.model,
            "c0": result.c0,
            "c1": result.c1,
            "t2_eff": result.t2_eff,
            "stretch": result.stretch,
            "freq_hz": result.freq_hz,
            "time_to_1e_s": result.time_to_1e,
            "residual": result.residual,
            "converged": result.converged,
            "at_bound": result.at_bound,
        }
        fit_path = write_output(str(output) + ".fit.json", json.dumps(fit_doc, indent=2) + "\n")
        click.echo(f"wrote {fit_path}")


@exp.command("mqc")
@click.option("--spins", type=SPINS, default=4, show_default=True)
@click.option("--tau-dq", type=NONNEGATIVE, default=1e-4, show_default=True, help="Total double-quantum growth time (s).")
@click.option("--phi-count", type=int, default=None, help="Phase-tag grid size (default: power of two >= 4*spins).")
@click.option("--window", default=None, help="'free:<seconds>' or 'protected:<SEQ>:<cycles>[:<tau>]'.")
@click.option("--coupling-sigma-hz", type=POSITIVE, default=5000.0 / 3.0, show_default=True)
@click.option("--seed", type=SEED, default=2026, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default="mqc.csv", show_default=True)
def exp_mqc(spins, tau_dq, phi_count, window, coupling_sigma_hz, seed, output):
    """Multiple-quantum coherence distribution from the tagged-echo protocol.

    CSV columns: order, intensity (normalized; they sum to the echo signal
    at phi=0).  The phase-resolved signal is written to <output>.signal.csv
    with columns phi_rad, signal.
    """
    try:
        phi_count = mqc_phi_count(spins, phi_count)
    except ValueError as exc:
        raise click.UsageError(f"--phi-count: {exc}") from exc
    win = None
    if window:
        parts = window.split(":")
        try:
            if parts[0] == "free" and len(parts) == 2:
                win = FreeWindow(float(parts[1]))
            elif parts[0] == "protected" and len(parts) in (3, 4):
                tau = float(parts[3]) if len(parts) == 4 else 4e-6
                win = ProtectedWindow(_load_sequence(parts[1]), int(parts[2]), tau)
            else:
                raise ValueError("unrecognized window form")
        except ValueError as exc:
            raise click.UsageError(f"bad --window value {window!r}: {exc}") from exc
    system = SpinSystem.create(sample_couplings(seed, spins, coupling_sigma_hz))
    result = mqc_experiment(system, tau_dq, phi_count, win)
    document = {
        "n_spins": spins,
        "tau_dq_s": tau_dq,
        "phi_count": result.meta["phi_count"],
        "window": window,
        "coupling_sigma_hz": coupling_sigma_hz,
        "base_seed": seed,
    }
    spectrum = zip(result.spectrum.orders, result.spectrum.intensities)
    path = write_output(
        output, csv_text(("order", "intensity"), spectrum, "spinweave mqc spectrum", document)
    )
    signal_path = write_output(
        str(output) + ".signal.csv",
        csv_text(("phi_rad", "signal"), zip(result.phases, result.signals)),
    )
    click.echo(f"wrote {path}")
    click.echo(f"wrote {signal_path}")


@main.command()
@click.argument("name")
@click.option("--profile", type=click.Choice(["paper", "ci"]), default="ci", show_default=True)
@click.option("--outdir", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=None, help="Worker threads (default: SPINWEAVE_THREADS or the CPUs in the affinity mask).")
def preset(name, profile, outdir, threads):
    """Run a figure preset; see PRESETS in the docs for the list."""
    threads = _threads(threads)
    try:
        paths = run_preset(name, profile=profile, outdir=outdir, threads=threads)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    for p in paths:
        click.echo(f"wrote {p}")


main.help = (main.help or "") + "\n\nPresets: " + ", ".join(PRESET_NAMES)


if __name__ == "__main__":
    main()
