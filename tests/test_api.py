import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["operators", "spins", "sequences", "control", "aht", "experiments", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_exports_every_name_in_all(name):
    module = importlib.import_module(f"spinweave.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from spinweave.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


IMPORT_GRAPH_PROBE = """
import sys

import spinweave
import spinweave.cli
from spinweave import (
    ErrorModel, SpinSystem, SweepSpec, autocorrelation, builtin, cycle_unitary,
    ensemble_fidelity, fidelity, fit_decay, magnus_series, mqc_experiment, sample_couplings,
)

system = SpinSystem.create(sample_couplings(3, 3, 1000.0))
whh = builtin("WHH")
ensemble_fidelity(SweepSpec("tau", (2e-6, 4e-6), ("WHH",), n_spins=3, n_coupling_sets=2), threads=2)
fidelity(cycle_unitary(system, whh, ErrorModel(pulse_width=1e-6)))
magnus_series(system, whh, 4e-6, 2)
mqc_experiment(system, 1e-4)
curve = autocorrelation(system, whh, blocks=range(8))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert fit_decay(curve).residual >= 0.0
assert "scipy.optimize" in sys.modules
"""


def test_only_a_fit_loads_scipy():
    # a fresh interpreter: this test process has long since imported scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
