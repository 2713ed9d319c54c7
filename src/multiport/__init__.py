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

from .decomposition import decompose, factor_count_bound, reconstruct, verify
from .linalg import haar_random_unitary
from .robustness import calibrate_sigma, component_fidelity_estimate, sweep_noise, sweep_size
from .serialize import json_to_plan, plan_to_json

__version__ = "0.1.0"

__all__ = [
    "calibrate_sigma",
    "component_fidelity_estimate",
    "decompose",
    "factor_count_bound",
    "haar_random_unitary",
    "json_to_plan",
    "plan_to_json",
    "reconstruct",
    "sweep_noise",
    "sweep_size",
    "verify",
]
