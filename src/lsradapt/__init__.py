"""Kronecker-sum (low separation rank) matrix representations and a
matched parameter-efficient adapter kernel, with a desk-scale training
harness and CLI."""

from .kron_core import (
    Shape,
    apply_kron2,
    apply_kron2_flops,
    apply_kron2_transpose,
    as_matrix,
    as_vector,
    kron,
)
from .lsr_repr import (
    KronTerm,
    NumericalError,
    PrecisionBudget,
    SeparatedMatrix,
    apply,
    check_precision,
    condition_number,
    diagnose,
    materialize,
    nearest_kron_sum,
    normalize_terms,
    rearrange,
    truncated_svd,
)
from .adapter import (
    LoraLayer,
    LsrAdaptLayer,
    ShapePlan,
    backward,
    count_params_lora,
    count_params_lsr,
    export_delta_as_separated,
    forward,
    init,
    lora_backward,
    lora_forward,
    lora_init,
    materialize_delta,
    plan_shapes,
)
from .train_harness import (
    CompareReport,
    DensePlant,
    DivergenceError,
    KronSumPlant,
    LowRankPlant,
    LsrProductPlant,
    OptimizerConfig,
    SyntheticTask,
    TrainReport,
    compare,
    gen_task,
    train,
)
from .rng import rng_stream

__version__ = "0.1.0"
