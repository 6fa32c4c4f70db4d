"""Toy encoder-decoder Transformer with a nonparametric-variational twin.

Standard attention over a set of vectors is re-read as Bayesian denoising of
the query against a mixture distribution induced by those vectors.  Swapping
the induced mixture for a projected Dirichlet-process posterior gives a
drop-in "denoising attention" whose dials interpolate between exact
equivalence with the original model and full collapse onto an empirical
prior component, with no retraining.
"""

from .attention import AttentionParams, attention
from .denoising import eval_dattn_multihead
from .errors import CorpusError, WeightFormatError
from .evaluate import certify, grid_points, run_sweep, token_overlap
from .model import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    ModelWeights,
    NvModel,
    forward_nv,
    forward_standard,
    greedy_decode,
    init_weights,
    reinterpret,
)
from .nvib import (
    ALPHA_CLAMP_EVENTS,
    LOG_ALPHA_CLAMP,
    SIGMA_SQ_FLOOR,
    TAU_SIGMA_MIN,
    DpPosterior,
    EmpiricalPrior,
    NvibProjection,
    TauConfig,
    identity_init,
    identity_taus,
    project,
)
from .numeric import make_rng, softmax_rows
from .priors import estimate_priors, prior_report
from .serialize import load_weights, read_corpus, save_weights, write_corpus

__version__ = "0.1.0"
