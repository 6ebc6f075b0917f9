"""Recurrent log-bilinear models for multi-behavioral sequential prediction.

Implements the RLBL model (windowed recurrent hidden state with
position-specific and behavior-specific transition matrices) and its
time-aware variant TA-RLBL (time-specific transition matrices obtained by
linear interpolation over a grid of time-difference bins), trained with a
BPR pairwise objective via backpropagation through time, plus ranking
evaluation, dataset ingestion, simple baselines and a command-line tool.
"""

from rlbl.data import Corpus, Event, UserSequence, build_corpus, length_bucket
from rlbl.model import RlblParams, hidden_at, hidden_chain, init_rlbl_params, score, score_all_items
from rlbl.time_aware import TaRlblParams, TimeBinGrid, init_ta_rlbl_params, interp_matrix
from rlbl.training import TrainConfig, bpr_pair_loss, gradient_check, sgd_epoch
from rlbl.evaluation import EvalConfig, RankingReport, evaluate, instance_metrics, rank_of_target
from rlbl.ingestion import SynthSpec, generate_synthetic, parse_generic, parse_movielens, write_generic
from rlbl.baselines import MarkovModel, PopModel, linear_rnn_as_rlbl

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Event",
    "UserSequence",
    "build_corpus",
    "length_bucket",
    "RlblParams",
    "hidden_at",
    "hidden_chain",
    "init_rlbl_params",
    "score",
    "score_all_items",
    "TaRlblParams",
    "TimeBinGrid",
    "init_ta_rlbl_params",
    "interp_matrix",
    "TrainConfig",
    "bpr_pair_loss",
    "gradient_check",
    "sgd_epoch",
    "EvalConfig",
    "RankingReport",
    "evaluate",
    "instance_metrics",
    "rank_of_target",
    "SynthSpec",
    "generate_synthetic",
    "parse_generic",
    "parse_movielens",
    "write_generic",
    "MarkovModel",
    "PopModel",
    "linear_rnn_as_rlbl",
]
