"""The run directory's one writer, and its snapshot of a filtered tripartite
dataset (ingest once, sweep many): an uncompressed .npz archive of the user,
object and tag ids (str arrays), a format version and, for each of the
user-object and user-tag graphs, its canonical CSR arrays `<graph>_indptr`
and `<graph>_indices` (int32 below 2**31 nodes and edges). Saving writes the
arrays the dataset holds, and loading hands them as they are, without a sort
or a Python string per id, to EntityIndexMap and BipartiteGraph, which check
them. zipfile checks the CRC-32 of each member on read.
"""

from __future__ import annotations

import errno
import io
import json
import os
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .core import (
    BipartiteGraph,
    EntityIndexMap,
    GraphConstructionError,
    IndexMapError,
    TripartiteDataset,
)

SNAPSHOT_NAME = "dataset.npz"
SUMMARY_NAME = "summary.json"
FORMAT_VERSION = 2
# what reading a damaged snapshot raises (seen with each byte flipped and each
# length cut); KeyError is a missing member, RuntimeError includes zipfile's
# NotImplementedError, TypeError is a lone .npy array in the snapshot's place
_DAMAGE = (BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError, ValueError)


class SnapshotError(ValueError):
    """A file of the run directory that cannot be written, or a snapshot that
    cannot be opened or read back; the message names the file."""


def write_files(contents: dict[Path, bytes]) -> None:
    """Writes files as one set, creating their directory: each under a
    temporary name beside it, all renamed into place only once every write
    succeeded, so a failure leaves the previous set as it was. A directory in
    a file's place fails before any rename, no temporary file is left behind,
    and a failure raises SnapshotError naming the file."""
    partials: list[Path] = []
    try:
        for path, data in contents.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            partial = path.with_name(path.name + ".tmp")
            with partial.open("wb") as fh:  # one that cannot be opened is left alone
                partials.append(partial)
                fh.write(data)
        for path, partial in zip(contents, partials):
            os.replace(partial, path)
    except OSError as exc:
        raise SnapshotError(f"cannot write {path}: {exc}") from exc
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)


def _index_map(npz, name: str) -> EntityIndexMap:
    """The index map of the ids npz holds under name; raises ValueError,
    naming the member, unless EntityIndexMap accepts them."""
    try:
        return EntityIndexMap(npz[name])
    except IndexMapError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _graph(npz, name: str, right_count: int) -> BipartiteGraph:
    """The graph whose CSR arrays npz holds under name; raises ValueError,
    naming the graph, unless BipartiteGraph accepts them."""
    try:
        return BipartiteGraph(npz[f"{name}_indptr"], npz[f"{name}_indices"], right_count)
    except GraphConstructionError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def save_dataset(dataset: TripartiteDataset, directory: Path) -> Path:
    """Write the dataset's snapshot and summary.json as one set (see
    write_files); returns the snapshot's path."""
    arrays = {
        "format_version": np.array(FORMAT_VERSION),
        "users": dataset.users.ids,
        "objects": dataset.objects.ids,
        "tags": dataset.tags.ids,
    }
    for name in ("user_object", "user_tag"):
        graph = getattr(dataset, name)
        arrays[f"{name}_indptr"] = graph.indptr
        arrays[f"{name}_indices"] = graph.indices
    path = directory / SNAPSHOT_NAME
    archive = io.BytesIO()
    try:
        np.savez(archive, **arrays)
    except OSError as exc:  # a write that fails while archiving fails the snapshot
        raise SnapshotError(f"cannot write {path}: {exc}") from exc
    write_files({
        path: archive.getvalue(),
        directory / SUMMARY_NAME: summary(dataset).encode("utf-8"),
    })
    return path


def load_dataset(directory: Path) -> TripartiteDataset:
    """Read back a snapshot written by save_dataset; raises SnapshotError,
    naming the file, for a snapshot that is missing, cannot be opened, is
    damaged or has another format version."""
    path = directory / SNAPSHOT_NAME
    try:
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as npz:
            version = npz["format_version"].tolist()
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"format version {version!r}, expected {FORMAT_VERSION}; "
                    "run tridiff ingest again"
                )
            users, objects, tags = (
                _index_map(npz, name) for name in ("users", "objects", "tags")
            )
            return TripartiteDataset(
                users=users,
                objects=objects,
                tags=tags,
                user_object=_graph(npz, "user_object", len(objects)),
                user_tag=_graph(npz, "user_tag", len(tags)),
            )
    except FileNotFoundError as exc:
        raise SnapshotError(f"no snapshot in {directory}; run ingest first") from exc
    except _DAMAGE as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc


def summary(dataset: TripartiteDataset) -> str:
    """The user, object, tag and edge counts as summary.json holds them."""
    counts = {
        "users": len(dataset.users),
        "objects": len(dataset.objects),
        "tags": len(dataset.tags),
        "user_object_edges": dataset.user_object.edge_count,
        "user_tag_edges": dataset.user_tag.edge_count,
    }
    return json.dumps(counts, indent=2)
