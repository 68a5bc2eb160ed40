"""Bayesian joint factorization of coupled matrices and 3-way tensors.

Strict trilinear (``mtf``) and relaxed (``rmtf``) Gibbs samplers over
collections of views coupled on the sample mode, plus synthetic-data
generators, two-stage out-of-sample prediction, and convergence / sampler
correctness diagnostics.
"""

from .core import (
    Collection,
    MaskedTensor3,
    PreprocessTransform,
    Tensor3,
    apply_transform,
    center_and_normalize,
    inverse_transform,
    unfold_collection,
    unfold_to_matrices,
    validate_collection,
)
from .diag import geweke_z, joint_distribution_test, summarize_run
from .dist import RngStream
from .fitting import fit_model
from .mtf import (
    HyperParams,
    MtfState,
    PosteriorSamples,
    component_structure,
    init_state,
    log_joint,
    reconstruct_mean,
    run_chain,
)
from .predict import PredictionTask, match_components, two_stage_predict
from .rmtf import RmtfState, rmtf_init, rmtf_run_chain
from .simgen import SimSpec, gen_continuum, gen_cp, gen_relaxed_cp, generate

__version__ = "0.1.0"
