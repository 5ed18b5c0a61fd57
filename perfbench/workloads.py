"""The spinweave benchmark workloads.

Each workload turns ``(seed, index)`` into fresh inputs, runs one job
through spinweave's public API (the way the ``sweep`` and ``preset`` CLI
paths do), can run the same job under a :class:`tracing.Tracer`, and
checks its outputs outside the timed region.  spinweave receives only the
generated inputs.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

import numpy as np

import reference
from spinweave import (
    ErrorModel,
    FreeWindow,
    ProtectedWindow,
    SpinSystem,
    autocorrelation,
    average_h,
    builtin,
    burum_terms,
    c_avg,
    cluster_size,
    cycle_unitary,
    dipolar_hamiltonian,
    dyson_terms,
    fidelity,
    fit_decay,
    frobenius_magnitude,
    internal_hamiltonian,
    magnus_series,
    mqc_experiment,
    nth_order_fidelity,
    pulse_unitary,
    sample_couplings,
    sample_disorder,
    toggling_segments,
    unitary_root,
)
from spinweave.control import DISORDER_SEED_OFFSET, SweepRow
from spinweave.harness import run_sweep, sweep_rows_to_csv, validate_config
from spinweave.operators import HermitianPropagator
from spinweave.sequences import schedule
from tracing import Untraced

# Input index spaces: timed jobs count up from 0; the traced job, the
# probes and the set-up use indices no timed job reaches.
TRACE_INDEX = 1_000_000
PROBE_INDEX = 2_000_000
PROBE_INPUTS = 5

NPROC = len(os.sched_getaffinity(0))


def derive_seed(seed: int, index: int) -> int:
    """A spinweave base seed that is a pure function of (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def kernel_probes(n_spins: int, pulse_width: float, seed: int, budget_s: float = 0.3) -> dict:
    """Median milliseconds of single kernel calls at one dimension."""
    systems = [
        SpinSystem.create(
            sample_couplings(derive_seed(seed, PROBE_INDEX + k), n_spins, 5000.0 / 3.0),
            disorder_hz=sample_disorder(derive_seed(seed, PROBE_INDEX + k), n_spins, 100.0),
        )
        for k in range(PROBE_INPUTS)
    ]
    error = ErrorModel(pulse_width=pulse_width)
    whh = builtin("WHH")

    def median_ms(fn) -> float:
        times = []
        start = time.perf_counter()
        for k in itertools.count():
            t0 = time.perf_counter()
            fn(k % PROBE_INPUTS)
            times.append(time.perf_counter() - t0)
            if k + 1 >= PROBE_INPUTS and time.perf_counter() - start >= budget_s:
                break
        return float(np.median(times)) * 1e3

    hs = [internal_hamiltonian(s) for s in systems]
    props = [HermitianPropagator(h) for h in hs]
    cycles = [cycle_unitary(s, whh, error, 4e-6) for s in systems]
    return {
        "spins.internal_hamiltonian_ms": median_ms(lambda k: internal_hamiltonian(systems[k])),
        "operators.eigh_ms": median_ms(lambda k: HermitianPropagator(hs[k])),
        "operators.propagator_at_ms": median_ms(lambda k: props[k].at(4e-6)),
        "operators.unitary_root_ms": median_ms(
            lambda k: unitary_root(cycles[k], whh.cycle_windows)
        ),
        "control.pulse_unitary_ms": median_ms(
            lambda k: pulse_unitary(90.0, error, n_spins, hs[k])
        ),
    }


class SweepWorkload:
    """A sweep document through validate_config -> run_sweep -> sweep_rows_to_csv."""

    def __init__(self, seed: int, document: dict, check_grid_index: int):
        self.seed = seed
        self.document = document
        self.check_grid_index = check_grid_index
        self.n_spins = document["n_spins"]
        self.pulse_width = document.get("pulse_width_s", 0.0)
        # the job at nproc threads, then the plain single-thread baseline; the
        # last variant is single-threaded: checks use its output and
        # trace.overhead_s its time
        self.variants = (("job_s", NPROC), ("job_1t_s", 1))

    def inputs(self, index: int) -> dict:
        return dict(self.document, base_seed=derive_seed(self.seed, index))

    def setup(self) -> None:
        validate_config(self.inputs(0))

    def job(self, doc: dict, threads: int, t) -> str:
        config = t.call("harness.validate_config", validate_config, doc)
        rows = t.call("harness.run_sweep", run_sweep, config, threads=threads)
        return t.call("harness.sweep_rows_to_csv", sweep_rows_to_csv, config, rows)

    def traced_job(self, doc: dict, t) -> str:
        """The members of ``run_sweep``, single-threaded, through the same public calls."""
        config = t.call("harness.validate_config", validate_config, doc)
        spec = config.spec
        sequences = [t.call("sequences.builtin", builtin, name) for name in spec.sequences]
        members = list(
            itertools.product(range(spec.n_coupling_sets), range(spec.n_disorder_samples))
        )
        results = np.zeros((len(spec.grid), len(sequences), len(members)))
        for i, value in enumerate(spec.grid):
            p = self._params(spec, value)
            error = self._error_model(p)
            for j, seq in enumerate(sequences):
                for k, (set_idx, dis_idx) in enumerate(members):
                    couplings = t.call(
                        "spins.sample_couplings",
                        sample_couplings,
                        spec.base_seed + set_idx,
                        spec.n_spins,
                        spec.coupling_sigma_hz,
                    )
                    if p["disorder_sigma_hz"] > 0.0:
                        disorder = t.call(
                            "spins.sample_disorder",
                            sample_disorder,
                            spec.base_seed + DISORDER_SEED_OFFSET + dis_idx,
                            spec.n_spins,
                            p["disorder_sigma_hz"],
                        )
                    else:
                        disorder = np.zeros(spec.n_spins)
                    system = t.call(
                        "spins.SpinSystem.create",
                        SpinSystem.create,
                        couplings,
                        disorder_hz=disorder,
                        global_offset_hz=p["global_offset_hz"],
                    )
                    u = t.call("control.cycle_unitary", cycle_unitary, system, seq, error, p["tau"])
                    results[i, j, k] = 1.0 - t.call(
                        "control.fidelity", fidelity, u, m=seq.cycle_windows
                    )
        rows = [
            SweepRow(
                parameter=spec.parameter,
                value=value,
                sequence=seq.name,
                mean_infidelity=float(np.mean(results[i, j])),
                stddev=float(np.std(results[i, j])),
                n_samples=len(members),
            )
            for i, value in enumerate(spec.grid)
            for j, seq in enumerate(sequences)
        ]
        return t.call("harness.sweep_rows_to_csv", sweep_rows_to_csv, config, rows)

    @staticmethod
    def _params(spec, value: float) -> dict:
        p = {
            "tau": spec.tau,
            "pulse_width": spec.pulse_width,
            "disorder_sigma_hz": spec.disorder_sigma_hz,
            "global_offset_hz": spec.global_offset_hz,
            "rotation_error": spec.rotation_error,
            "transient": spec.transient,
        }
        p[spec.parameter] = value
        return p

    @staticmethod
    def _error_model(p: dict) -> ErrorModel:
        return ErrorModel(
            pulse_width=p["pulse_width"],
            rotation_error=p["rotation_error"],
            transient_leading=p["transient"],
            transient_trailing=p["transient"],
        )

    def schedule_steps(self, doc: dict) -> int:
        """Free plus pulse steps over every member of one job."""
        spec = validate_config(doc).spec
        n_members = spec.n_coupling_sets * spec.n_disorder_samples
        total = 0
        for value in spec.grid:
            p = self._params(spec, value)
            for name in spec.sequences:
                total += n_members * len(schedule(builtin(name), p["tau"], p["pulse_width"]))
        return total

    # ---- checks -------------------------------------------------------

    def _reference_row(self, doc: dict, sequence: str):
        """Reference 1 - F and cycle propagator of every member of the checked row."""
        spec = validate_config(doc).spec
        p = self._params(spec, spec.grid[self.check_grid_index])
        error = self._error_model(p)
        seq = builtin(sequence)
        steps = schedule(seq, p["tau"], p["pulse_width"])
        values, cycles = [], []
        for set_idx in range(spec.n_coupling_sets):
            couplings = sample_couplings(spec.base_seed + set_idx, spec.n_spins, spec.coupling_sigma_hz)
            for dis_idx in range(spec.n_disorder_samples):
                disorder = (
                    sample_disorder(
                        spec.base_seed + DISORDER_SEED_OFFSET + dis_idx,
                        spec.n_spins,
                        p["disorder_sigma_hz"],
                    )
                    if p["disorder_sigma_hz"] > 0.0
                    else np.zeros(spec.n_spins)
                )
                offsets = disorder + p["global_offset_hz"]
                h = reference.internal_hamiltonian(couplings, offsets)
                u = reference.cycle(steps, spec.n_spins, error, h)
                cycles.append(u)
                values.append(reference.infidelity(u, seq.cycle_windows))
        return values, cycles, seq.cycle_windows

    def _row_mean(self, csv: str, sequence: str) -> float | None:
        """``mean_infidelity`` of the checked row of ``sequence`` in a CSV result."""
        value = self.document["sweep"]["grid"][self.check_grid_index]
        rows = [line.split(",") for line in csv.splitlines() if line and not line.startswith("#")]
        for fields in rows[1:]:
            if float(fields[1]) == value and fields[2] == sequence:
                return float(fields[3])
        return None

    def checks(self, doc: dict, csv_1t: str) -> list[Check]:
        """Determinism at 1 and nproc threads, reference rows and the self-test."""
        out = []
        csv_nt = self.job(doc, NPROC, Untraced())
        out.append(Check("rows identical at 1 and nproc threads", csv_nt == csv_1t, f"nproc={NPROC}"))
        sequences = self.document["sequences"]
        first = None
        for name in sequences:
            ref_values, cycles, m = self._reference_row(doc, name)
            ref_mean = float(np.mean(ref_values))
            got = self._row_mean(csv_1t, name)
            ok = got is not None and reference.agrees(got, ref_mean)
            out.append(Check(f"{name} row mean vs dense reference", ok, f"package {got!r} reference {ref_mean!r}"))
            if first is None:
                first = (name, ref_values, cycles, m, ref_mean)
        # self-test: a perturbed propagator and a swapped data row must be caught
        name, ref_values, cycles, m, ref_mean = first
        perturbed = [reference.infidelity(reference.kick(self.n_spins) @ cycles[0], m)]
        perturbed += ref_values[1:]
        out.append(
            Check(
                "self-test: perturbed propagator is caught",
                not reference.agrees(float(np.mean(perturbed)), ref_mean),
                f"perturbed mean {float(np.mean(perturbed))!r} reference {ref_mean!r}",
            )
        )
        lines = csv_1t.splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if line.startswith("sweep_param"))
        a = header + 1 + self.check_grid_index * len(sequences)
        row_a, row_b = lines[a].split(","), lines[a + 1].split(",")
        row_a[3], row_b[3] = row_b[3], row_a[3]  # exchange the two rows' mean_infidelity
        lines[a], lines[a + 1] = ",".join(row_a), ",".join(row_b)
        swapped = "".join(lines)
        swapped_mean = self._row_mean(swapped, name)
        caught = swapped != csv_1t and not (
            swapped_mean is not None and reference.agrees(swapped_mean, ref_mean)
        )
        out.append(Check("self-test: swapped data row is caught", caught, ""))
        return out

    def traced_checks(self, doc: dict, traced_csv: str) -> list[Check]:
        untraced = self.job(doc, NPROC, Untraced())
        return [Check("traced rows identical to untraced rows", traced_csv == untraced, "")]

    def layer_facts(self, doc: dict, result) -> dict:
        return {"sequences.schedule_steps": self.schedule_steps(doc), "dim": 1 << self.n_spins}


# ---- aht + experiments ------------------------------------------------

MAX_ORDER = 70
H_TAU = 0.466
AUTOCORR_BLOCKS = tuple(range(0, 257, 8))


@dataclass
class AhtInputs:
    couplings_a: np.ndarray  # 4 spins, uniform 5 kHz with a 2 % seeded jitter
    couplings_b: np.ndarray  # 6 spins, sigma 420/3 Hz
    couplings_c: np.ndarray  # 6 spins, sigma 5000/3 Hz
    couplings_d: np.ndarray  # 6 spins, sigma 5000/3 Hz


@dataclass
class AhtResult:
    segments: list
    series: object
    f_n: list
    magnus: list
    curves: dict
    fits: list
    mqc: list
    cluster: tuple

    def fingerprint(self) -> tuple:
        """Every output, exactly, for comparing two runs of one input."""
        return (
            tuple(self.f_n),
            tuple(t.tobytes() for s in [self.series, *self.magnus] for t in s.terms),
            tuple(c.values.tobytes() for c in self.curves.values()),
            tuple(self.fits),
            tuple(r.spectrum.intensities.tobytes() for r in self.mqc),
            self.cluster,
        )


def _sym(rng: np.random.Generator, n: int, draw) -> np.ndarray:
    """Symmetric coupling matrix with zero diagonal from the upper triangle of a draw."""
    upper = np.triu(draw(rng, (n, n)), 1)
    return upper + upper.T


class AhtWorkload:
    """figA4 panel c, Magnus orders 0-4, autocorrelation fits and MQC."""

    variants = (("job_s", 1),)
    n_spins = 6  # kernel probes run at the size of parts (b)-(d)
    pulse_width = 0.0

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, index: int) -> AhtInputs:
        rng = np.random.default_rng([self.seed, index])
        return AhtInputs(
            couplings_a=_sym(rng, 4, lambda r, s: 5000.0 * (1.0 + 0.02 * r.standard_normal(s))),
            couplings_b=_sym(rng, 6, lambda r, s: (420.0 / 3.0) * r.standard_normal(s)),
            couplings_c=_sym(rng, 6, lambda r, s: (5000.0 / 3.0) * r.standard_normal(s)),
            couplings_d=_sym(rng, 6, lambda r, s: (5000.0 / 3.0) * r.standard_normal(s)),
        )

    def setup(self) -> None:
        inp = self.inputs(0)
        for c in (inp.couplings_a, inp.couplings_b, inp.couplings_c, inp.couplings_d):
            SpinSystem.create(c)
        for name in ("WHH", "BR24", "CORY48"):
            builtin(name)

    def job(self, inp: AhtInputs, threads: int, t) -> AhtResult:
        create = "spins.SpinSystem.create"
        # (a) figA4 panel c: WHH at |H| tau = 0.466 (RMS eigenvalue), F_n for n = 0..70
        whh = t.call("sequences.builtin", builtin, "WHH")
        sys_a = t.call(create, SpinSystem.create, inp.couplings_a)
        h = t.call("spins.dipolar_hamiltonian", dipolar_hamiltonian, sys_a)
        h_rms = t.call("operators.frobenius_magnitude", frobenius_magnitude, h) / np.sqrt(h.shape[0])
        tau_a = H_TAU / h_rms
        segments = t.call("aht.toggling_segments", toggling_segments, sys_a, whh, tau_a)
        dyson = t.call("aht.dyson_terms", dyson_terms, segments, MAX_ORDER + 1)
        series = t.call("aht.burum_terms", burum_terms, dyson, whh.cycle_time(tau_a))
        f_n = [
            t.call(
                "control.nth_order_fidelity", nth_order_fidelity, sys_a, whh, tau_a, n, series=series
            )
            for n in range(MAX_ORDER + 1)
        ]
        # (b) Magnus orders 0-4 at 420 Hz couplings and a 30 Hz offset
        br24 = t.call("sequences.builtin", builtin, "BR24")
        cory = t.call("sequences.builtin", builtin, "CORY48")
        sys_b = t.call(create, SpinSystem.create, inp.couplings_b, global_offset_hz=30.0)
        magnus = [
            t.call("aht.magnus_series", magnus_series, sys_b, seq, 4e-6, 4) for seq in (br24, cory)
        ]
        # (c) autocorrelation on x, y, z, C_avg and its decay fit
        curves, fits = {}, []
        for seq, offset_hz, model in ((br24, 1000.0, "oscillating"), (cory, 0.0, "stretched")):
            sys_c = t.call(create, SpinSystem.create, inp.couplings_c, global_offset_hz=offset_hz)
            axes = [
                t.call(
                    "experiments.autocorrelation",
                    autocorrelation,
                    sys_c,
                    seq,
                    ErrorModel(),
                    4e-6,
                    axis,
                    AUTOCORR_BLOCKS,
                )
                for axis in "xyz"
            ]
            for axis, curve in zip("xyz", axes):
                curves[(seq.name, axis)] = curve
            avg = t.call("experiments.c_avg", c_avg, *axes)
            fits.append(t.call("experiments.fit_decay", fit_decay, avg, model))
        # (d) MQC without a window, with a free window and with a CORY48-protected window
        sys_d = t.call(create, SpinSystem.create, inp.couplings_d)
        protected = ProtectedWindow(cory, 8)
        mqc = [
            t.call("experiments.mqc_experiment", mqc_experiment, sys_d, 1e-4, window=window)
            for window in (None, FreeWindow(protected.duration), protected)
        ]
        cluster = t.call("experiments.cluster_size", cluster_size, mqc[0].spectrum)
        return AhtResult(segments, series, f_n, magnus, curves, fits, mqc, cluster)

    def traced_job(self, inp: AhtInputs, t) -> AhtResult:
        return self.job(inp, 1, t)

    # ---- checks -------------------------------------------------------

    @staticmethod
    def _traceless(term: np.ndarray, h_scale: float) -> bool:
        """Criterion-5 rule: relative trace below 1e-10, or a numerically zero term."""
        size = frobenius_magnitude(term)
        trace = abs(complex(np.trace(term)))
        if size > 1e-12 * h_scale:
            return trace / size < 1e-10
        return trace < 1e-12 * h_scale

    @staticmethod
    def _odd_orders_vanish(spectrum) -> bool:
        odd = spectrum.intensities[spectrum.orders % 2 != 0]
        return float(np.abs(odd).max()) < 1e-12

    @staticmethod
    def _scale_a(result: AhtResult) -> float:
        return frobenius_magnitude(result.segments[0].hamiltonian)

    def checks(self, inp: AhtInputs, result: AhtResult) -> list[Check]:
        out = []
        scale_a = self._scale_a(result)
        for order in (0, 1):
            diff = frobenius_magnitude(result.series.terms[order] - average_h(result.segments, order))
            out.append(
                Check(f"order {order} equals the average_h closed form", diff / scale_a < 1e-10, f"{diff / scale_a:.2e}")
            )
        h_b = frobenius_magnitude(dipolar_hamiltonian(SpinSystem.create(inp.couplings_b)))
        traceless_a = all(self._traceless(term, scale_a) for term in result.series.terms)
        traceless_b = all(self._traceless(term, h_b) for s in result.magnus for term in s.terms)
        out.append(Check("WHH terms 0..70 are traceless", traceless_a, ""))
        out.append(Check("BR24/CORY48 Magnus terms 0..4 are traceless", traceless_b, ""))
        finite = all(np.isfinite(f) and 0.0 <= f <= 1.0 for f in result.f_n)
        out.append(Check("F_n finite and in [0, 1] for n = 0..70", finite, ""))
        c0 = max(abs(c.values[0] - 1.0) for c in result.curves.values())
        out.append(Check("C(0) = 1 on every autocorrelation curve", c0 < 1e-12, f"{c0:.1e}"))
        for fit in result.fits:
            out.append(Check(f"{fit.model} fit converged", fit.converged, repr(fit)))
        for label, r in zip(("none", "free", "protected"), result.mqc):
            out.append(Check(f"MQC ({label} window) odd orders vanish", self._odd_orders_vanish(r.spectrum), ""))
        echo = result.mqc[0]
        out.append(Check("MQC intensity sum conserved", abs(echo.spectrum.total - 1.0) < 1e-12, f"{echo.spectrum.total!r}"))
        out.append(Check("MQC echo at phi = 0 equals 1", abs(echo.signals[0] - 1.0) < 1e-12, f"{echo.signals[0]!r}"))
        # self-test: a perturbed term and a swapped spectrum row must be caught
        bad_term = result.series.terms[2] + 1e-6 * scale_a * np.eye(result.series.terms[2].shape[0])
        out.append(Check("self-test: perturbed Magnus term is caught", not self._traceless(bad_term, scale_a), ""))
        spectrum = result.mqc[0].spectrum
        swapped = type(spectrum)(orders=spectrum.orders, intensities=spectrum.intensities.copy())
        zero = int(np.nonzero(spectrum.orders == 0)[0][0])
        swapped.intensities[[zero, zero + 1]] = swapped.intensities[[zero + 1, zero]]
        out.append(Check("self-test: swapped spectrum row is caught", not self._odd_orders_vanish(swapped), ""))
        return out

    def traced_checks(self, inp: AhtInputs, traced: AhtResult) -> list[Check]:
        untraced = self.job(inp, 1, Untraced())
        same = untraced.fingerprint() == traced.fingerprint()
        return [Check("traced outputs identical to untraced outputs", same, "")]

    def layer_facts(self, inp: AhtInputs, result: AhtResult) -> dict:
        scale_a = self._scale_a(result)
        # residuals of numerically zero terms are roundoff ratios, not signal
        residuals = [
            r
            for term, r in zip(result.series.terms, result.series.hermiticity_residuals)
            if frobenius_magnitude(term) > 1e-12 * scale_a
        ]
        return {
            "sequences.schedule_steps": 0,
            "dim": 1 << self.n_spins,
            "aht.segments": len(result.segments),
            "aht.max_order": result.series.max_order,
            "aht.hermiticity_residual_max": max(residuals),
            "experiments.fit_converged_frac": float(np.mean([f.converged for f in result.fits])),
            "experiments.fit_at_bound": float(sum(f.at_bound for f in result.fits)),
        }


def make(name: str, seed: int):
    if name == "sweep-tau-8spin":
        document = {
            "sequences": ["WHH", "BR24", "CORY48"],
            "n_spins": 8,
            "n_coupling_sets": 2,
            "n_disorder_samples": 1,
            "tau_s": 4e-6,
            "pulse_width_s": 0.0,
            "sweep": {"parameter": "tau_s", "grid": [2e-6, 4e-6]},
        }
        return SweepWorkload(seed, document, check_grid_index=1)
    if name == "sweep-disorder-4spin":
        document = {
            "sequences": ["WHH", "BR24", "CORY48", "YXX24", "YXX48"],
            "n_spins": 4,
            "n_coupling_sets": 1,
            "n_disorder_samples": 20,
            "tau_s": 4e-6,
            "pulse_width_s": 1e-6,
            "sweep": {
                "parameter": "disorder_sigma_hz",
                "grid": [float(v) for v in np.geomspace(1.0, 300.0, 5)],
            },
        }
        return SweepWorkload(seed, document, check_grid_index=4)
    if name == "aht-experiments":
        return AhtWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

