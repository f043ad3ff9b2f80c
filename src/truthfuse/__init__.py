"""truthfuse: profiling, conflict resolution, and copy-aware fusion for
multi-source claim sets."""

from .config import CopyParams, FusionConfig, RunConfig, load_config
from .copydetect import (
    CopyMatrix,
    GroupCommonality,
    detect_copying,
    group_commonality,
    independence_weights,
)
from .dataio import (
    load_claims,
    load_gold,
    load_known_copiers,
    load_schema,
    load_trust,
    write_claims,
    write_gold,
    write_schema,
    write_trust,
)
from .evalharness import (
    CurvePoint,
    EvalReport,
    incremental_curve,
    precision_by_dominance,
    precision_recall,
    rank_sources,
    time_series_summary,
    timed_run,
    trust_deviation,
    trust_difference,
)
from .fusion import (
    FusionEngine,
    FusionError,
    FusionResult,
    FusionState,
    MethodSpec,
    accu_posteriors,
    method_labels,
    run_fusion,
    sample_trust,
)
from .metrics import (
    ItemProfile,
    SourceProfile,
    accuracy_deviation,
    deviation,
    dominant,
    entropy,
    item_redundancy,
    object_redundancy,
    precision_of_dominant,
    profile_items,
    profile_sources,
    source_accuracy,
    source_coverage,
)
from .model import (
    AttributeSpec,
    Claim,
    ClaimSet,
    DataItem,
    GoldStandard,
    Kind,
    KindMismatchError,
    LoadError,
    TruthFuseError,
    UndefinedDeviationError,
    Value,
    ValueParseError,
    majority_gold,
)
from .normalize import (
    Bucket,
    bucketize,
    effective_tolerance,
    normalize_value,
    similarity,
    subsumes,
    tolerance,
    tolerances,
    values_match,
)
from .synthetic import (
    CopierGroup,
    SyntheticAttribute,
    SyntheticError,
    SyntheticSpec,
    generate_synthetic,
    spec_from_dict,
)

__version__ = "0.1.0"
