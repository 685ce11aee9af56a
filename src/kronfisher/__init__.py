"""Kronecker-factored Fisher approximations and natural-gradient training for MLPs."""

from .factorizations import (
    FactorResult,
    KronPair,
    SingularTriplet,
    deflation_factors,
    kfac_corrected_factors,
    kfac_factors,
    kpsvd_factors,
    lanczos_factors,
    psd_select,
)
from .linalg import (
    NotPositiveDefiniteError,
    SymEig,
    inv_sqrt,
    kron,
    mat,
    spectrum,
    sym_eig,
    vec,
    zigzag,
)
from .mlp import (
    LayerBatchStats,
    MLPModel,
    backward,
    batch_loss,
    exact_fim_block,
    forward,
    init_mlp,
    sample_targets,
    zf_matvec,
    zf_rmatvec,
)
from .optim import (
    OptimizerConfig,
    ProbeErrors,
    StepMetrics,
    TrainState,
    adam_step,
    fim_error_probe,
    first_order_step,
    init_train_state,
    natural_step,
    sgd_step,
    train_step,
)
from .precond import (
    KronApprox,
    apply_rank1_inverse,
    damp_pair,
    damping_pi,
    ema_update,
    kl_clip,
    kron_sum_apply,
    kron_sum_prepare,
)

__version__ = "0.1.0"
