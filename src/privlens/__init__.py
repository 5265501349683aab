"""privlens: interpretable privacy features and simple classifiers for
binary image-privacy prediction, plus annotator-disagreement analyses.
"""

from .features import (
    FeatureGroup,
    Likelihood,
    PrivacyLabel,
    StandardizationParams,
    apply_standardizer,
    assemble_features,
    encode_likelihood,
    fit_standardizer,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    balanced_accuracy,
    confusion,
    f1,
    unweighted_accuracy,
)
from .classifiers import (
    Model,
    TrainConfig,
    load_model,
    predict_label,
    predict_proba,
    save_model,
    train_logreg,
    train_mlp,
)

__version__ = "0.1.0"

__all__ = [
    "ConfusionCounts",
    "FeatureGroup",
    "Likelihood",
    "MetricsReport",
    "Model",
    "PrivacyLabel",
    "StandardizationParams",
    "TrainConfig",
    "apply_standardizer",
    "assemble_features",
    "balanced_accuracy",
    "confusion",
    "encode_likelihood",
    "f1",
    "fit_standardizer",
    "load_model",
    "predict_label",
    "predict_proba",
    "save_model",
    "train_logreg",
    "train_mlp",
    "unweighted_accuracy",
]
