"""Black-box evasion attacks on graph-kernel loop-closure classifiers."""

from .graph_core import (
    EdgeFlip,
    GraphDataset,
    InapplicableFlip,
    LabeledGraph,
    ParseError,
    SchemaError,
    apply_flips,
    graph_hash,
    read_dataset,
    write_dataset,
)
from .perturb import (
    BudgetExceedsPairs,
    CentralityScores,
    eigencentrality,
    flip_budget,
    plan_eigencentrality,
    plan_random_walk,
    plan_shortest_path,
)
from .wl_features import WlFeatureVector, wl_feature_vector
from .learners import (
    DegenerateData,
    DegenerateLabels,
    DimensionMismatch,
    KernelSpec,
    TrainedNaiveBayes,
    TrainedSvm,
    nb_predict,
    nb_train,
    svm_predict,
    svm_train,
)
from .target_lcd import (
    BlackBoxQuery,
    QueryBudgetExhausted,
    QueryLedger,
    TargetModel,
    attack_loss,
    load_target,
    query,
    save_target,
    train_target,
)
from .attack_engine import (
    AttackConfig,
    AttackOutcome,
    AttackRecord,
    AttackSummary,
    attack_one,
    attack_testset,
)
from .synth_data import GeneratorConfig, InvalidConfig, generate
from .bench_stats import (
    MethodSpec,
    RankReport,
    ResultTable,
    TooFewBlocks,
    friedman_nemenyi,
    nemenyi_critical_difference,
    rank_descriptives,
    run_benchmark,
)

__version__ = "0.1.0"
