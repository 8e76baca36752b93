"""Bayesian post-processing of single-shot number-resolving detector signatures.

Model a lossy, dark-count-prone photon counter as a conditional probability
matrix P(m|n), invert it against a known photon-number prior, and read off
how each raw count should be reinterpreted and with what confidence.
"""

import os
import sys

# countfix makes no BLAS call, and the thread pool that OpenBLAS starts as
# numpy loads slows every cold start, so the pool is kept to one thread.
# OpenBLAS reads the variable once, at load: once numpy is loaded, setting it
# would only reach child processes. A user's own value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .detector import ConditionalMatrix, DetectorParams, build_matrix  # noqa: E402
from .inference import OptimisationReport, PosteriorMatrix, optimisation_map, posterior  # noqa: E402
from .montecarlo import EmpiricalColumn, ShotConfig, empirical_joint, empirical_matrix  # noqa: E402
from .priors import NumberPrior, custom_prior, pdc_prior, uniform_prior  # noqa: E402

__version__ = "0.8.0"

__all__ = [
    "ConditionalMatrix",
    "DetectorParams",
    "EmpiricalColumn",
    "NumberPrior",
    "OptimisationReport",
    "PosteriorMatrix",
    "ShotConfig",
    "build_matrix",
    "custom_prior",
    "empirical_joint",
    "empirical_matrix",
    "optimisation_map",
    "pdc_prior",
    "posterior",
    "uniform_prior",
    "__version__",
]
