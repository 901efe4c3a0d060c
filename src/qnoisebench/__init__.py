"""Density-matrix circuit simulation with per-cycle noise injection, plus
the benchmarking protocols and circuits built on top of it."""

from .benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    MaxCutGraph,
    QAOA_BETA_STAR,
    QAOA_GAMMA_STAR,
    adder_input_index,
    adder_sum_from_index,
    build_adder,
    build_benchmark,
    build_idle,
    build_qaoa,
    build_qft,
    build_random,
    cut_sizes,
    maxcut_expectation,
    optimize_qaoa_angles,
)
from .circuits import (
    CLIFFORD_T,
    PARAM_ROTATIONS,
    Circuit,
    Cycle,
    circuit_unitary,
    simulate,
    toffoli_decomposition,
)
from .compiling import (
    apply_pauli_frame,
    approx_rz,
    best_rz_error,
    interleave_idle,
    is_easy_cycle,
    lower_controlled_rz,
    randomized_compile,
    rz_word_error,
    to_clifford_t,
)
from .errors import (
    ConfigError,
    FitDiverged,
    InvalidParams,
    InvalidState,
    NotADistribution,
    NotInterleaved,
    SearchExhausted,
    SimulationError,
)
from .gates import Gate
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    emit,
    load_rows_csv,
    load_rows_json,
    run_experiment,
)
from .metrics import (
    average_gate_fidelity,
    fidelity_trace_bounds,
    hellinger,
    process_fidelity,
    trace_distance,
)
from .noise import (
    AmplitudeDamping,
    CoherentNoise,
    NoNoise,
    PauliNoise,
    PauliPlusCoherent,
    PhaseDamping,
    kraus_operators,
    noise_level_table,
    noise_model_for,
)
from .protocols import (
    clifford_group,
    heavy_output_test,
    quantum_volume,
    rb_experiment,
    rb_fit,
    state_tomography_1q,
    xeb_score,
)
from .states import (
    DensityMatrix,
    Ket,
    ket_to_density,
    measurement_distribution,
    random_product_state,
    sample_measurements,
)

__all__ = [name for name in dir() if not name.startswith("_")]
