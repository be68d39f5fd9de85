"""Discourse parsing toolkit: global chart decoders (exact, partial- and
complete-independence) and a shift-reduce parser over one learned span
representation, trained with structured margin losses."""

from .core import (
    Document,
    Edu,
    LabeledSpan,
    LEAF_RELATION,
    LEAF_RELATION_NAME,
    Nuclearity,
    RelationVocab,
    RstTree,
    structural_error,
    validate_tree,
)
from .chart import (
    ExactTooLarge,
    LossAugmented,
    NeuralOracle,
    NonFiniteScore,
    ScoreTables,
    TableOracle,
    augment_tables,
    chart_loss,
    count_missing,
    decode_complete,
    decode_exact,
    decode_partial,
    hamming,
    missing_prediction,
    random_tables,
    score_tree,
)
from .data import (
    Corpus,
    CorpusError,
    Vocab,
    generate_synthetic,
    load_corpus,
    load_embeddings,
    random_tree,
    save_corpus,
    split_train_dev,
)
from .encoder import ModelError, ModelParams, encode_document
from .metrics import EvalReport, aggregate, evaluate_trees, score_pair
from .training import (
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    adam_step,
    evaluate_model,
    joint_loss,
    predict_tree,
    train,
)
from .transition import (
    greedy_parse,
    oracle_actions,
    replay,
    transition_loss,
)

__version__ = "0.1.0"
