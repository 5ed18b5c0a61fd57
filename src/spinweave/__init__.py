"""spinweave: desk-scale simulation of dipolar-decoupling pulse sequences.

Exact propagation of small spin-1/2 clusters under dipolar + offset
Hamiltonians with realistic pulse errors, trace-fidelity sweeps,
average-Hamiltonian term computation, frame-matrix analysis, and simulated
autocorrelation / multiple-quantum-coherence experiments with decay
fitting.
"""

from .operators import (
    expm_hermitian,
    frobenius_magnitude,
    unitary_root,
)
from .spins import (
    SpinSystem,
    collective_operator,
    dipolar_hamiltonian,
    dq_hamiltonian,
    internal_hamiltonian,
    offset_hamiltonian,
    sample_couplings,
    sample_disorder,
)
from .sequences import (
    PulseSequence,
    builtin,
    frame_matrix,
    parse_sequence,
    row_sum_check,
    validate_cyclic,
)
from .control import (
    ErrorModel,
    SweepSpec,
    cycle_unitary,
    ensemble_fidelity,
    fidelity,
    nth_order_fidelities,
    nth_order_fidelity,
    pulse_unitary,
)
from .aht import (
    MagnusSeries,
    average_h,
    burum_terms,
    convergence_check,
    dyson_terms,
    magnus_series,
    term_magnitudes,
    toggling_segments,
)
from .experiments import (
    CoherenceSpectrum,
    DecayCurve,
    FitResult,
    FreeWindow,
    ProtectedWindow,
    autocorrelation,
    autocorrelations,
    c_avg,
    cluster_size,
    coherence_intensities,
    fit_decay,
    mqc_experiment,
)
from .harness import run_preset, validate_config

__version__ = "0.1.0"
