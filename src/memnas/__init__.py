"""Memory-constant channel planning, per-layer peak-RAM profiling, and
constrained evolutionary subnet search for mobile-inverted-bottleneck
supernets."""

from .errors import (
    ChainError,
    InfeasibleError,
    PartialDatasetError,
    ResolutionError,
    TrainingError,
    ValidationError,
)
from .memory import (
    LayerMemory,
    MBBlockShape,
    MemoryProfile,
    NetworkSkeleton,
    block_memory,
    depthwise_memory,
    expansion_memory,
    flops_estimate,
    flops_millions,
    items_to_bytes,
    profile_network,
    projection_memory,
)
from .planner import (
    ChannelSchedule,
    DominantLayer,
    ReferenceConfig,
    StageTemplate,
    cout_depthwise_dominated,
    cout_dw_to_exp,
    cout_exp_dominated,
    dominant_layer,
    numeric_balance,
    plan_schedule,
    quantize,
    select_cout,
)
from .predictor import (
    Dataset,
    DatasetRow,
    PredictorModel,
    balanced_sample,
    encode,
    predict,
    synthetic_score,
    train,
)
from .search import (
    SearchConstraint,
    SearchParams,
    SearchResult,
    SweepPoint,
    search,
    sweep,
)
from .space import (
    SubnetConfig,
    SupernetSpace,
    config_peak_items,
    count_subnets,
    crossover,
    default_space,
    maximal_config,
    mutate,
    resolve,
    sample_uniform,
    validate,
)

__version__ = "0.1.0"
