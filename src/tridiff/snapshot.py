"""Text snapshot of a filtered tripartite dataset (ingest once, sweep many)."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .core import EntityIndexMap, TripartiteDataset, build_graph

SNAPSHOT_NAME = "dataset.json"


def save_dataset(dataset: TripartiteDataset, directory: Path) -> Path:
    """Write the dataset as a single JSON snapshot; returns the file path.

    The snapshot is written to a temporary file beside it and then renamed
    over it, so a failed write leaves the previous snapshot intact."""
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "users": list(dataset.users.external_ids),
        "objects": list(dataset.objects.external_ids),
        "tags": list(dataset.tags.external_ids),
        "user_object": [[int(u), int(o)] for u, o in dataset.user_object.edges()],
        "user_tag": [[int(u), int(t)] for u, t in dataset.user_tag.edges()],
    }
    path = directory / SNAPSHOT_NAME
    partial = path.with_name(path.name + ".tmp")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def load_dataset(directory: Path) -> TripartiteDataset:
    """Read back a snapshot written by save_dataset."""
    path = directory / SNAPSHOT_NAME
    with path.open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    users = EntityIndexMap.from_ids(payload["users"])
    objects = EntityIndexMap.from_ids(payload["objects"])
    tags = EntityIndexMap.from_ids(payload["tags"])
    return TripartiteDataset(
        users=users,
        objects=objects,
        tags=tags,
        user_object=build_graph(payload["user_object"], len(users), len(objects)),
        user_tag=build_graph(payload["user_tag"], len(users), len(tags)),
    )


def summary(dataset: TripartiteDataset) -> dict[str, int]:
    return {
        "users": len(dataset.users),
        "objects": len(dataset.objects),
        "tags": len(dataset.tags),
        "user_object_edges": dataset.user_object.edge_count,
        "user_tag_edges": dataset.user_tag.edge_count,
    }
