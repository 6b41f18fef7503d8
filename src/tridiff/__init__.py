"""Tag-aware collaborative filtering with diffusion-based user similarity."""

from .core import EntityIndexMap, TripartiteDataset, build_graph
from .ingest import core_filter, parse
from .recommend import Scorer

__version__ = "0.1.0"

__all__ = [
    "EntityIndexMap",
    "Scorer",
    "TripartiteDataset",
    "build_graph",
    "core_filter",
    "parse",
]
