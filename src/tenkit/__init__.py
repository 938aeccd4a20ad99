"""tenkit: dense tensor algebra, network contraction planning, decompositions."""

from .core import (
    DenseTensor,
    all_ones,
    element_count,
    fold,
    folding_operator,
    identity,
    k_unfold,
    linear_index,
    matricize,
    matrix_unit,
    multi_index,
    one_hot,
    permute,
    subtensor,
    super_diagonal,
    vec,
    zeros,
)
from .decomp import (
    CPFit,
    CPModel,
    TRRing,
    TTTrain,
    TuckerModel,
    cp_als,
    cp_reconstruct,
    hosvd,
    read_model,
    reconstruct,
    tr_reconstruct,
    tt_chain,
    tt_orthogonalize,
    tt_reconstruct,
    tt_split,
    tt_svd,
    tucker_orthogonalize,
    tucker_reconstruct,
    truncated_hosvd,
    write_model,
)
from .elementwise import (
    add,
    broadcast_shapes,
    divide,
    ew_binary,
    frobenius_norm,
    inner,
    multiply,
    outer,
    scale,
    subtract,
    sum_all,
)
from .errors import (
    ArgumentError,
    BoundsError,
    DivisionError,
    ModelError,
    NumericError,
    ParseError,
    PlanError,
    ShapeError,
    TenkitError,
)
from .factor import QRResult, SVDResult, numerical_rank, pinv, qr, svd, truncated_svd
from .io import dumps_tensor, format_float, loads_tensor, read_tensor, write_tensor
from .network import (
    ContractionPlan,
    TensorNetwork,
    evaluate,
    format_network,
    pair_cost,
    parse_network,
    plan,
)
from .products import (
    khatri_rao,
    kronecker,
    matmul,
    mode_product,
    multi_mode_product,
    tensor_product,
    trace,
    tt_pair_product,
)

__version__ = "0.1.0"
