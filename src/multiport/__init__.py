"""Block decomposition of unitary matrices and its noise robustness.

An ``n x n`` unitary is factored into a mesh of embedded unitaries of size
up to ``m`` (the ``m = 2`` case is the classic triangular beam-splitter
scheme) followed by per-mode output phases.  On top of the decomposition
sits a noise toolkit that perturbs every factor with complex Gaussian entry
noise and measures how block-level fidelity translates into fidelity of the
reassembled matrix: noise calibration to a target block fidelity from the
closed-form mean block fidelity, and reproducible Monte-Carlo parameter
sweeps with CSV/SVG output.

Importing the package needs only numpy; scipy is imported the first time a
calibration runs.
"""

from .decomposition import (
    CostComparison,
    DecompositionError,
    DecompositionPlan,
    Factor,
    SweepDiagnostics,
    VerificationReport,
    cost_compare,
    decompose,
    embed_factor,
    factor_count_bound,
    reconstruct,
    verify,
)
from .linalg import (
    UnitarityReport,
    haar_random_unitary,
    rq_decompose,
    sample_haar,
    unitarity,
)
from .robustness import (
    CalibrationResult,
    FidelityStats,
    NoiseModel,
    SweepResult,
    calibrate_sigma,
    component_fidelity_estimate,
    fidelity,
    reconstruct_perturbed,
    sweep_noise,
    sweep_size,
)
from .serialize import (
    load_matrix,
    load_plan,
    matrix_to_json,
    json_to_matrix,
    json_to_plan,
    plan_to_json,
    save_matrix,
    save_plan,
    save_sweep_results,
    sweep_results_to_csv,
)
from .svgchart import Series, line_chart, save_chart

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CostComparison",
    "DecompositionError",
    "DecompositionPlan",
    "Factor",
    "FidelityStats",
    "NoiseModel",
    "Series",
    "SweepDiagnostics",
    "SweepResult",
    "UnitarityReport",
    "VerificationReport",
    "calibrate_sigma",
    "component_fidelity_estimate",
    "cost_compare",
    "decompose",
    "embed_factor",
    "factor_count_bound",
    "fidelity",
    "haar_random_unitary",
    "json_to_matrix",
    "json_to_plan",
    "line_chart",
    "load_matrix",
    "load_plan",
    "matrix_to_json",
    "plan_to_json",
    "reconstruct",
    "reconstruct_perturbed",
    "rq_decompose",
    "sample_haar",
    "save_chart",
    "save_matrix",
    "save_plan",
    "save_sweep_results",
    "sweep_noise",
    "sweep_results_to_csv",
    "sweep_size",
    "unitarity",
    "verify",
]
