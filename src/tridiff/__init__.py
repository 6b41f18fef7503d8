"""Tag-aware collaborative filtering with diffusion-based user similarity."""

from .core import (
    BipartiteGraph,
    EntityIndexMap,
    GraphConstructionError,
    TripartiteDataset,
    build_graph,
)
from .evaluation import (
    ExperimentConfig,
    MetricsReport,
    UndefinedMetricError,
    evaluate_split,
    run_sweep,
)
from .ingest import EvaluationSplit, RawRecords, core_filter, parse, split
from .recommend import Scorer

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "EntityIndexMap",
    "EvaluationSplit",
    "ExperimentConfig",
    "GraphConstructionError",
    "MetricsReport",
    "RawRecords",
    "Scorer",
    "TripartiteDataset",
    "UndefinedMetricError",
    "build_graph",
    "core_filter",
    "evaluate_split",
    "parse",
    "run_sweep",
    "split",
]
