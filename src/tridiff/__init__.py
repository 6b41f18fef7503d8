"""Tag-aware collaborative filtering with diffusion-based user similarity."""

from .core import (
    BipartiteGraph,
    EntityIndexMap,
    GraphConstructionError,
    IndexMapError,
    TripartiteDataset,
    build_graph,
)
from .ingest import EvaluationSplit, RawRecords, core_filter, parse, split
from .recommend import Scorer

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "EntityIndexMap",
    "EvaluationSplit",
    "GraphConstructionError",
    "IndexMapError",
    "RawRecords",
    "Scorer",
    "TripartiteDataset",
    "build_graph",
    "core_filter",
    "parse",
    "split",
]
