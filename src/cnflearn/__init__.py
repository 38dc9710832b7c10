"""Online probabilistic prediction of monotone conjunctions and k-CNF
Boolean functions under logarithmic loss, with brute-force oracles, a
model-averaging naive Bayes baseline, and an experiment harness."""

from .core import (
    BoundViolation,
    Example,
    LossLedger,
    OnlinePredictor,
    Prediction,
    cumulative_loss,
    log1mexp2,
    logsumexp2,
)
from .harness import (
    DatasetConfig,
    RunReport,
    SyntheticConfig,
    emit_report,
    ingest_dataset,
    parse_report,
    run_bounds_table,
    run_dataset,
    run_oracle_checks,
    run_synthetic,
    sample_hypothesis,
)
from .madnb import Madnb, factored_joint_log2, nb_joint_log2, nb_mixture_log2
from .predictors import (
    ExactMixture,
    HeuristicMixture,
    HybridPredictor,
    MapEstimate,
    Memorizer,
    PracticalPredictor,
    exact_mixture_joint,
    map_index_set,
    positive_trace_log2,
)
from .reductions import (
    ClauseBasis,
    ConjunctionMap,
    DisjunctionMap,
    ExpandedHybrid,
    ExpandedPractical,
    ReducedPredictor,
    basis_size,
    build_basis,
)

__version__ = "0.1.0"
