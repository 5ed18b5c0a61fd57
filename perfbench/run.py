"""spinweave benchmark: run one workload, or every workload, and report metrics.

Run from the root of a spinweave checkout:

    python3 perfbench/run.py --workload sweep-tau-8spin --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary table

A run measures set-up in fresh interpreters, then repeats the workload's
job with fresh inputs until ``--seconds`` have passed, then checks the
outputs outside the timed region.  ``--trace 1`` adds one traced job on
fresh inputs plus kernel probes and reports per-layer metrics instead of
the end-to-end ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
record with provenance, samples, checks and spans goes to
``.perfbench-out/`` in the checkout.
"""

import os

# BLAS and OpenMP stay single-threaded, set before numpy is first imported:
# the sweep thread pool alone decides how many cores a run uses, and it
# never uses more than nproc.  Unpinned OpenBLAS threads oversubscribe the
# cores under that pool and slow the 8-spin sweep several-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 5
WORKLOADS = ("sweep-tau-8spin", "sweep-disorder-4spin", "aht-experiments")

END_TO_END = {
    "job_s": "s",
    "job_1t_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "spins.ensemble_s": "s",
    "spins.internal_hamiltonian_ms": "ms",
    "sequences.schedule_steps": "count",
    "operators.eigh_ms": "ms",
    "operators.propagator_at_ms": "ms",
    "operators.unitary_root_ms": "ms",
    "control.cycle_unitary_s": "s",
    "control.cycle_unitary_calls": "count",
    "control.cycle_unitary_ms_p50": "ms",
    "control.cycle_unitary_ms_p90": "ms",
    "control.fidelity_s": "s",
    "control.fidelity_ms_p50": "ms",
    "control.pulse_unitary_ms": "ms",
    "control.cycle_dense_gflop": "gflop_computed",
    "control.cycle_eff_gflops": "gflop/s",
    "control.thread_speedup": "ratio",
    "control.nth_order_fidelity_s": "s",
    "aht.toggling_segments_s": "s",
    "aht.dyson_terms_s": "s",
    "aht.burum_terms_s": "s",
    "aht.magnus_series_s": "s",
    "aht.segments": "count",
    "aht.max_order": "count",
    "aht.hermiticity_residual_max": "ratio",
    "experiments.autocorrelation_s": "s",
    "experiments.fit_decay_s": "s",
    "experiments.mqc_experiment_s": "s",
    "experiments.cluster_size_s": "s",
    "experiments.fit_converged_frac": "ratio",
    "experiments.fit_at_bound": "count",
    "harness.validate_config_s": "s",
    "harness.sweep_rows_to_csv_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds of set-up in each of SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_loop(wl, seconds: float, counter):
    """Repeat the job on fresh inputs for ``seconds``.

    Variants run in the order A B B A A B ..., so neither thread count
    always runs first; the loop stops at the deadline once every variant
    has a sample, or at the deadline anyway once a job has raised.
    """
    samples = {label: [] for label, _ in wl.variants}
    last, failures = {}, []
    order = wl.variants + wl.variants[::-1]
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        if time.perf_counter() >= deadline and (all(samples.values()) or failures):
            break
        label, threads = order[index % len(order)]
        inputs = wl.inputs(index)
        start = time.perf_counter()
        try:
            output = wl.job(inputs, threads, counter)
        except Exception:  # a raising public call is a counted failure
            failures.append(traceback.format_exc())
            continue
        samples[label].append(time.perf_counter() - start)
        last[label] = (inputs, output)
    return samples, last, failures


def run_checks(fn, *args):
    """Run a workload's check function; an exception counts as one failed check."""
    from workloads import Check

    try:
        return fn(*args)
    except Exception:
        return [Check(fn.__name__, False, traceback.format_exc())]


def layer_metrics(wl, tracer, traced_s, facts, probes, samples) -> dict:
    import numpy

    spans = tracer.summary()

    def total(*names):
        return sum((spans[n]["total_s"] for n in names if n in spans), 0.0)

    def quantile_ms(name, q):
        ms = spans.get(name, {}).get("ms", [])
        return float(numpy.quantile(ms, q)) if ms else 0.0

    single = statistics.median(samples[wl.variants[-1][0]])
    cycle_s = total("control.cycle_unitary")
    gflop = facts["sequences.schedule_steps"] * 8 * facts["dim"] ** 3 / 1e9
    metrics = {
        "spins.ensemble_s": total("spins.sample_couplings", "spins.sample_disorder", "spins.SpinSystem.create"),
        "sequences.schedule_steps": facts["sequences.schedule_steps"],
        "control.cycle_unitary_s": cycle_s,
        "control.cycle_unitary_calls": spans.get("control.cycle_unitary", {}).get("count", 0),
        "control.cycle_unitary_ms_p50": quantile_ms("control.cycle_unitary", 0.5),
        "control.cycle_unitary_ms_p90": quantile_ms("control.cycle_unitary", 0.9),
        "control.fidelity_s": total("control.fidelity"),
        "control.fidelity_ms_p50": quantile_ms("control.fidelity", 0.5),
        "control.cycle_dense_gflop": gflop,
        "control.cycle_eff_gflops": gflop / cycle_s if cycle_s else 0.0,
        "control.thread_speedup": single / statistics.median(samples["job_s"]),
        "control.nth_order_fidelity_s": total("control.nth_order_fidelity"),
        "aht.toggling_segments_s": total("aht.toggling_segments"),
        "aht.dyson_terms_s": total("aht.dyson_terms"),
        "aht.burum_terms_s": total("aht.burum_terms"),
        "aht.magnus_series_s": total("aht.magnus_series"),
        "experiments.autocorrelation_s": total("experiments.autocorrelation"),
        "experiments.fit_decay_s": total("experiments.fit_decay"),
        "experiments.mqc_experiment_s": total("experiments.mqc_experiment"),
        "experiments.cluster_size_s": total("experiments.cluster_size"),
        "harness.validate_config_s": total("harness.validate_config"),
        "harness.sweep_rows_to_csv_s": total("harness.sweep_rows_to_csv"),
        "trace.overhead_s": traced_s - single,
        "trace.coverage": tracer.covered_s() / traced_s,
    }
    metrics.update(probes)
    metrics.update({k: v for k, v in facts.items() if k in PER_LAYER})
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def provenance(seed: int, wl) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # never report the commit of a repository that merely contains the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinweave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            "sweep": dict(wl.variants),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        },
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_one(args) -> int:
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    setup_times = measure_setup(args.workload, args.seed)
    phase("setup")

    import workloads
    from tracing import Tracer, Untraced

    wl = workloads.make(args.workload, args.seed)
    counter = Untraced()
    phase("import")
    samples, last, failures = timed_loop(wl, args.seconds, counter)
    phase("timed")
    if any(not times for times in samples.values()):
        print("\n".join(failures), file=sys.stderr)
        print(f"error: no successful {args.workload} job to time", file=sys.stderr)
        return 1
    checks = run_checks(wl.checks, *last[wl.variants[-1][0]])
    calls = counter.calls
    phase("checks")

    metrics = {
        "job_s": statistics.median(samples["job_s"]),
        "job_1t_s": statistics.median(samples.get("job_1t_s", samples["job_s"])),
        "setup_s": statistics.median(setup_times),
    }
    units = END_TO_END
    tracer = None
    if args.trace:
        units = PER_LAYER
        tracer = Tracer(job_id=1)
        inputs = wl.inputs(workloads.TRACE_INDEX)
        start = time.perf_counter()
        traced = wl.traced_job(inputs, tracer)
        traced_s = time.perf_counter() - start
        calls += tracer.calls
        checks += run_checks(wl.traced_checks, inputs, traced)
        phase("trace")
        probes = workloads.kernel_probes(wl.n_spins, wl.pulse_width, args.seed)
        phase("probes")
        facts = wl.layer_facts(inputs, traced)
        metrics = layer_metrics(wl, tracer, traced_s, facts, probes, samples)
    else:
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_checks = [c for c in checks if not c.ok]
    attempted = calls + len(checks)
    failed = len(failures) + len(failed_checks)
    info = provenance(args.seed, wl)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "provenance": info,
        "metrics": metrics,
        "phases_s": phases,
        "samples_s": {"setup": setup_times, **samples},
        "checks": [vars(c) for c in checks],
        "failures": failures,
        "spans": None if tracer is None else tracer.summary(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(
        f"# {args.workload} seed={args.seed} nproc={info['nproc']} cpu={info['cpu_model']!r} "
        f"numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']!r} "
        f"threads={info['threads']} commit={info['git_commit']} src={info['source_sha256'][:12]}"
    )
    for label, times in samples.items():
        print(f"# {label} samples: {len(times)}")
    for c in failed_checks:
        print(f"# FAILED check: {c.name}: {c.detail}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_frac {failed / attempted!r} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows.append((workload, json.loads(done.stdout.strip().splitlines()[-1])))
    names = list(END_TO_END if not args.trace else ["trace.coverage", "trace.overhead_s"])
    print("\nworkload               " + "  ".join(f"{n:>18}" for n in names + ["fail_frac"]))
    for workload, result in rows:
        cells = [f"{result['metrics'][n]['value']:.4g} {result['metrics'][n]['unit']}" for n in names]
        cells.append(f"{result['failed'] / result['attempted']:.3g} ratio")
        print(f"{workload:<22} " + "  ".join(f"{c:>18}" for c in cells))
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinweave" / "__init__.py").is_file():
        print(f"error: no spinweave sources under {SRC}; run from a spinweave checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
