"""Bayesian post-processing of single-shot number-resolving detector signatures.

Model a lossy, dark-count-prone photon counter as a conditional probability
matrix P(m|n), invert it against a known photon-number prior, and read off
how each raw count should be reinterpreted and with what confidence.
"""

import os
import sys

# countfix's only BLAS calls are two 1-d dot products, so the OpenBLAS thread
# pool that numpy starts as it loads only burns CPU. OpenBLAS reads the
# variable once, at load: once numpy is loaded, setting it would only reach
# child processes. A user's own value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .detector import ConditionalMatrix, DetectorParams, build_matrix  # noqa: E402
from .inference import OptimisationReport, PosteriorMatrix, optimisation_map, posterior  # noqa: E402
from .montecarlo import (  # noqa: E402
    EmpiricalColumn,
    ShotConfig,
    column_stream,
    empirical_joint,
    empirical_matrix,
    joint_stream,
)
from .priors import NumberPrior, custom_prior, pdc_prior, uniform_prior  # noqa: E402

__version__ = "0.6.0"

__all__ = [
    "ConditionalMatrix",
    "DetectorParams",
    "EmpiricalColumn",
    "NumberPrior",
    "OptimisationReport",
    "PosteriorMatrix",
    "ShotConfig",
    "build_matrix",
    "column_stream",
    "custom_prior",
    "empirical_joint",
    "empirical_matrix",
    "joint_stream",
    "optimisation_map",
    "pdc_prior",
    "posterior",
    "uniform_prior",
    "__version__",
]
