"""Streaming maximum-weight k-matching: dynamic-model sketches and insert-only compaction."""

from .dynamic import DynamicMatcher, EdgeUpdate, edge_from_id, edge_id, weight_class
from .exact import Matching, solve_exact
from .field_hash import KWiseHash, UniversalHash, kwise_draw, universal_draw
from .insertonly import (
    CopyState,
    InsertOnlyMatcher,
    ReduceTask,
    insert_preprocess,
    insert_query,
    insert_update,
)
from .l0sampler import EMPTY, FAIL, L0Sampler, Sampled
from .partition import HashScheme, SchemeParams, build_scheme, key_indices
from .streams import StreamFile, gen_planted, parse_stream, render_stream
from .trials import TrialConfig, TrialReport, run_trials

__all__ = [
    "CopyState",
    "DynamicMatcher",
    "EMPTY",
    "EdgeUpdate",
    "FAIL",
    "HashScheme",
    "InsertOnlyMatcher",
    "KWiseHash",
    "L0Sampler",
    "Matching",
    "ReduceTask",
    "Sampled",
    "SchemeParams",
    "StreamFile",
    "TrialConfig",
    "TrialReport",
    "UniversalHash",
    "build_scheme",
    "edge_from_id",
    "edge_id",
    "gen_planted",
    "insert_preprocess",
    "insert_query",
    "insert_update",
    "kwise_draw",
    "parse_stream",
    "key_indices",
    "render_stream",
    "run_trials",
    "solve_exact",
    "universal_draw",
    "weight_class",
]

__version__ = "0.1.0"
