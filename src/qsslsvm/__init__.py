"""Semi-supervised least-squares kernel SVM with a desk-scale,
density-matrix simulation of its quantum training pipeline."""

from .channels import (
    EvolutionConfig,
    EvolutionResult,
    ProgramState,
    glmr_step,
    make_program_state_k,
    make_program_state_kk,
    make_program_state_klk,
    mix_program_states,
    simulate_evolution,
)
from .classical import (
    AssembledSystem,
    KernelSpec,
    ModelSolution,
    assemble_system,
    kernel_matrix,
    predict,
    solve_classical,
    train_semi_supervised,
)
from .datasets import (
    LaplacianMatrix,
    SampleGraph,
    TrainingSet,
    build_knn_graph,
    combinatorial_laplacian,
    load_dataset,
    load_graph,
    load_points,
    normalized_laplacian,
)
from .encodings import (
    DensityMatrix,
    StateVector,
    kernel_density,
    label_state,
    laplacian_density,
)
from .hhl import (
    HHLResult,
    QPEConfig,
    glmr_phase_estimation,
    hhl_solve,
    quantum_multiply,
)
from .linalg import (
    SpectralDecomposition,
    hermitian_eig,
    state_fidelity,
)
from .pipeline import (
    CostModelParams,
    RunConfig,
    bench_lmr,
    cost_model,
    emit_report,
    run_classical,
    run_pipeline,
)
from .swap_test import classify

__version__ = "0.1.0"
