"""The run directory's one writer, and its snapshot of a filtered tripartite
dataset (ingest once, sweep many).

A snapshot is one file of format version 3, in this order:
1. the 8-byte MAGIC;
2. the header's length in bytes, a little-endian uint32;
3. the header, UTF-8 JSON: {"version": 3, "arrays": [[name, dtype, shape], ...]};
4. each array's C-order bytes, each starting at the next multiple of 8 bytes
   from the start of the file (zero bytes pad the gaps);
5. a little-endian uint32 CRC-32 of every byte before it.

The arrays are the user, object and tag ids ("<U<width>" str arrays) and,
for each of the user-object and user-tag graphs, its canonical CSR arrays
`<graph>_indptr` and `<graph>_indices` ("<i4" below 2**31 nodes and edges,
else "<i8"). Offsets follow from the dtypes and shapes, so the header holds
none. Saving packs the arrays the dataset holds into one buffer. Loading
reads the file into one buffer, checks its CRC and layout, and hands each
array, a view into that buffer, to EntityIndexMap and BipartiteGraph, which
check them. Nothing is unpickled, and no allocation grows with a size the
header claims.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import zlib
from pathlib import Path

import numpy as np

from .core import (
    BipartiteGraph,
    EntityIndexMap,
    GraphConstructionError,
    IndexMapError,
    TripartiteDataset,
)

SNAPSHOT_NAME = "dataset.bin"
SUMMARY_NAME = "summary.json"
FORMAT_VERSION = 3
MAGIC = b"TRIDIFF\n"
_ARRAYS = [
    "users", "objects", "tags",
    "user_object_indptr", "user_object_indices", "user_tag_indptr", "user_tag_indices",
]
# the dtypes a snapshot holds: int32 or int64 CSR arrays, and str ids narrower
# than 10**8 characters (wider ones np.dtype cannot make); never an object or
# structured dtype
_DTYPE = re.compile(r"<i[48]|<U[1-9][0-9]{0,7}")
# what reading a damaged snapshot raises; RecursionError is a header whose JSON
# nests too deep
_DAMAGE = (OSError, RecursionError, ValueError)


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


def _pack(arrays: dict[str, np.ndarray]) -> bytearray:
    """The snapshot file that holds arrays, in their order (see the module
    docstring), as one buffer."""
    arrays = {  # a copy only on a big-endian machine
        name: array.astype(array.dtype.newbyteorder("<"), copy=False)
        for name, array in arrays.items()
    }
    header = json.dumps({
        "version": FORMAT_VERSION,
        "arrays": [[name, array.dtype.str, list(array.shape)] for name, array in arrays.items()],
    }).encode("utf-8")
    prefix = MAGIC + len(header).to_bytes(4, "little") + header
    offsets, end = [], len(prefix)
    for array in arrays.values():
        offsets.append(end + -end % 8)
        end = offsets[-1] + array.nbytes
    buffer = bytearray(end + 4)
    buffer[: len(prefix)] = prefix
    for offset, array in zip(offsets, arrays.values()):
        np.ndarray(array.shape, array.dtype, buffer, offset)[...] = array
    buffer[end:] = zlib.crc32(memoryview(buffer)[:end]).to_bytes(4, "little")
    return buffer


def _unpack(buffer: bytearray) -> dict[str, np.ndarray]:
    """The arrays of a snapshot file's bytes, each a view into buffer; raises
    ValueError, saying what is wrong, unless buffer is a whole, undamaged
    snapshot of this format version that holds the arrays save_dataset
    writes. Sizes are Python ints, so no header can make them wrap."""
    size = len(buffer)
    if buffer[: len(MAGIC)] != MAGIC:
        raise ValueError("not a tridiff snapshot: its first bytes are not the magic")
    header_end = len(MAGIC) + 4 + int.from_bytes(buffer[len(MAGIC) : len(MAGIC) + 4], "little")
    if size < header_end + 4:
        raise ValueError(f"{size} bytes, too short for its header and CRC")
    if zlib.crc32(memoryview(buffer)[:-4]) != int.from_bytes(buffer[-4:], "little"):
        raise ValueError("CRC-32 mismatch: the file is damaged")
    header = json.loads(buffer[len(MAGIC) + 4 : header_end].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("the header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"format version {header.get('version')!r:.20}, expected {FORMAT_VERSION}; "
            "run tridiff ingest again"
        )
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise ValueError("the header lists no arrays")
    arrays, offset = {}, header_end
    for entry in entries:
        match entry:
            case [str(name), str(dtype), list(shape)] if all(
                type(n) is int and n >= 0 for n in shape
            ):
                pass
            case _:
                raise ValueError(f"array entry {entry!r:.80} is not [name, dtype, shape]")
        if not _DTYPE.fullmatch(dtype):
            raise ValueError(f"{name!r:.40}: dtype {dtype!r:.40} is not one a snapshot holds")
        dtype = np.dtype(dtype)
        offset += -offset % 8
        count = math.prod(shape)
        if offset + count * dtype.itemsize > size - 4:
            raise ValueError(f"{name!r:.40}: {count} x {dtype} runs past the end of the arrays")
        arrays[name] = np.frombuffer(buffer, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    if offset != size - 4:
        raise ValueError(f"the arrays end at byte {offset}, not at the CRC's {size - 4}")
    names = [entry[0] for entry in entries]
    if names != _ARRAYS:
        raise ValueError(f"arrays {names!r:.200}, expected {_ARRAYS}")
    return arrays


def _checked(name: str, build, *args) -> EntityIndexMap | BipartiteGraph:
    """build(*args), build being EntityIndexMap or BipartiteGraph; raises
    ValueError with the array's name in front if build refuses them."""
    try:
        return build(*args)
    except (IndexMapError, GraphConstructionError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def save_dataset(dataset: TripartiteDataset, directory: Path) -> Path:
    """Write the dataset's snapshot and summary.json as one set (see
    write_files); returns the snapshot's path."""
    arrays = {
        "users": dataset.users.ids,
        "objects": dataset.objects.ids,
        "tags": dataset.tags.ids,
    }
    for name in ("user_object", "user_tag"):
        graph = getattr(dataset, name)
        arrays[f"{name}_indptr"] = graph.indptr
        arrays[f"{name}_indices"] = graph.indices
    path = directory / SNAPSHOT_NAME
    write_files({
        path: _pack(arrays),
        directory / SUMMARY_NAME: summary(dataset).encode("utf-8"),
    })
    return path


def load_dataset(directory: Path) -> TripartiteDataset:
    """Read back a snapshot written by save_dataset with one read into one
    buffer; raises SnapshotError, naming the file, for a snapshot that is
    missing, cannot be opened, is damaged or has another format version."""
    path = directory / SNAPSHOT_NAME
    try:
        with path.open("rb") as fh:
            buffer = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(buffer) != len(buffer):
                raise ValueError("the file shrank while it was read")
        arrays = _unpack(buffer)
        users, objects, tags = (
            _checked(name, EntityIndexMap, arrays[name]) for name in ("users", "objects", "tags")
        )
        graphs = {
            name: _checked(
                name, BipartiteGraph, arrays[f"{name}_indptr"], arrays[f"{name}_indices"],
                (len(users), len(ids)),
            )
            for name, ids in (("user_object", objects), ("user_tag", tags))
        }
        return TripartiteDataset(users=users, objects=objects, tags=tags, **graphs)
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
