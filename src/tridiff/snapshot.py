"""Binary snapshot of a filtered tripartite dataset (ingest once, sweep many).

An uncompressed .npz archive of the user, object and tag ids (str arrays),
the user-object and user-tag edges ((E, 2) integer arrays) and a format
version. zipfile checks the CRC-32 of each member on read.
"""

from __future__ import annotations

import os
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .core import EntityIndexMap, TripartiteDataset, build_graph

SNAPSHOT_NAME = "dataset.npz"
FORMAT_VERSION = 1
# what reading a damaged snapshot raises (seen with each byte flipped and each
# length cut); KeyError is a missing member, RuntimeError includes zipfile's
# NotImplementedError, TypeError is a lone .npy array in the snapshot's place
_DAMAGE = (BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError, ValueError)


class SnapshotError(ValueError):
    """Raised when a dataset cannot be written as, or read back from, a snapshot."""


def _id_array(index: EntityIndexMap) -> np.ndarray:
    ids = np.array(index.external_ids, dtype=str)
    if ids.tolist() != list(index.external_ids):  # a str array drops trailing NULs
        raise SnapshotError("an id ends in a NUL character, which a snapshot cannot hold")
    return ids


def _index_map(name: str, ids: np.ndarray) -> EntityIndexMap:
    if ids.ndim != 1 or ids.dtype.kind != "U":
        raise ValueError(f"{name} must be a 1-D str array, got {ids.dtype} {ids.shape}")
    index = EntityIndexMap.from_ids(ids.tolist())
    if len(index) != len(ids):
        raise ValueError(f"{name} repeats an id")
    return index


def save_dataset(dataset: TripartiteDataset, directory: Path) -> Path:
    """Write the dataset as a single snapshot file; returns its path.

    The snapshot is written to a temporary file beside it and then renamed
    over it, so a failed write leaves the previous snapshot intact. An OSError
    from creating the directory or writing the file raises SnapshotError."""
    arrays = {
        "format_version": np.array(FORMAT_VERSION),
        "users": _id_array(dataset.users),
        "objects": _id_array(dataset.objects),
        "tags": _id_array(dataset.tags),
        "user_object": dataset.user_object.edge_array(),
        "user_tag": dataset.user_tag.edge_array(),
    }
    path = directory / SNAPSHOT_NAME
    partial = path.with_name(path.name + ".tmp")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        try:
            with partial.open("wb") as fh:  # given a name, np.savez would append .npz
                np.savez(fh, **arrays)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    return path


def load_dataset(directory: Path) -> TripartiteDataset:
    """Read back a snapshot written by save_dataset; raises SnapshotError,
    naming the file, for a damaged snapshot or another format version."""
    path = directory / SNAPSHOT_NAME
    with path.open("rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                version = npz["format_version"].tolist()
                if version != FORMAT_VERSION:
                    raise ValueError(f"format version {version!r}, expected {FORMAT_VERSION}")
                users, objects, tags = (
                    _index_map(name, npz[name]) for name in ("users", "objects", "tags")
                )
                return TripartiteDataset(
                    users=users,
                    objects=objects,
                    tags=tags,
                    user_object=build_graph(npz["user_object"], len(users), len(objects)),
                    user_tag=build_graph(npz["user_tag"], len(users), len(tags)),
                )
        except _DAMAGE as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc


def summary(dataset: TripartiteDataset) -> dict[str, int]:
    return {
        "users": len(dataset.users),
        "objects": len(dataset.objects),
        "tags": len(dataset.tags),
        "user_object_edges": dataset.user_object.edge_count,
        "user_tag_edges": dataset.user_tag.edge_count,
    }
