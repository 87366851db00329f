"""Argumentative relation classification with content/context feature dissection.

The package separates every feature into content-based (derived from the
argumentative unit's span), content-ignorant (derived from the unit's
surrounding sentence context), and full-access (both, plus
boundary-crossing features), and ships the training, evaluation,
robustness, and analysis machinery built on that split.
"""

from .corpus import (
    ATTACK,
    Corpus,
    CorpusSplit,
    Document,
    EauSpan,
    LINKED,
    NONE,
    PairingConfig,
    RelationInstance,
    SUPPORT,
    TASK_CLASSES,
    build_instances,
    parse_standoff,
    split_corpus,
    transform_corpus,
)
from .features import CB, CI, FA, FeatureRegistry, InstanceView, assemble, extract_matrix
from .learn import LinearModel, TrainConfig, load_model, save_model, train
from .evaluation import (
    anova_scores,
    f1_report,
    mfs_baseline,
    randomize_contexts,
    significance,
    strip_contexts,
)
from .pipeline import RunConfig, load_corpus_dir, run_experiment
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"
