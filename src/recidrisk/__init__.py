"""Recidivism risk assessment toolkit.

Encodes questionnaire case data, trains three-class risk classifiers
(nearest shrunken centroid, k-NN, decision tree, random forest), scores them
with police-oriented quality measures, and tunes a stochastic hybrid that
interpolates between a rule-system baseline and the trained model.
"""

__version__ = "0.1.0"

from .baseline import (
    CAUTIOUS,
    LAX,
    MEDIUM_CAUTIOUS,
    MEDIUM_LAX,
    NAMED_RULE_SYSTEMS,
    RuleSystem,
    ViogenClass,
    viogen_classify,
)
from .dataset import (
    MISSING,
    CaseRecord,
    EncodingError,
    FeatureMatrix,
    Question,
    QuestionnaireSchema,
    RiskLabel,
    SplitSpec,
    decode_row,
    encode_cases,
    kfold,
    label_from_recidivism,
    read_case_matrix,
    split,
)
from .experiments import (
    EvalPlan,
    ModelConfig,
    SearchSpace,
    compare_with_baseline,
    default_search_space,
    fit_model,
    grid_search,
    nc_fine_space,
    nc_fine_tune,
    threshold_sensitivity,
)
from .hybrid import (
    SweepResult,
    decide_mu,
    evaluate_hybrid,
    hybrid_sample,
    mu_sweep,
    resource_profile,
)
from .knn import KNNModel, knn_fit
from .metrics import (
    ClassScores,
    ConfusionMatrix,
    MetricSpec,
    class_scores,
    confusion,
    police_protection,
    police_resource,
)
from .model_io import load_model, save_model
from .nearest_centroid import NearestCentroidModel, nc_fit
from .synthgen import (
    GeneratorConfig,
    ResponseProfile,
    assess_cases,
    attach_viogen_scores,
    default_schema,
    demo_config,
    demo_profiles,
    generate,
)
from .trees import ForestModel, TreeModel, forest_fit, tree_fit
