import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.core import EntityIndexMap, IndexMapError, TripartiteDataset, build_graph
from tridiff.evaluation import UndefinedMetricError, evaluate_split
from tridiff.ingest import split
from tridiff import snapshot
from tridiff.snapshot import SNAPSHOT_NAME, SnapshotError, load_dataset, save_dataset

from conftest import frame_snapshot, make_dataset, rewrite_snapshot, sealed, snapshot_parts


@pytest.fixture
def dataset():
    return make_dataset([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0)], 2, 2, 1)


def test_round_trip(dataset, tmp_path):
    save_dataset(dataset, tmp_path)
    again = load_dataset(tmp_path)
    assert again.users.ids.tolist() == dataset.users.ids.tolist()
    assert again.user_object.edge_array().tolist() == dataset.user_object.edge_array().tolist()
    assert again.user_tag.edge_array().tolist() == dataset.user_tag.edge_array().tolist()
    assert {p.name for p in tmp_path.iterdir()} == {SNAPSHOT_NAME, "summary.json"}


def test_failed_write_keeps_previous_snapshot(dataset, tmp_path, monkeypatch):
    path = save_dataset(dataset, tmp_path)
    before = path.read_bytes()
    summary_before = (tmp_path / "summary.json").read_bytes()

    def fail(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(snapshot.os, "replace", fail)
    with pytest.raises(SnapshotError, match=f"{re.escape(str(path))}: disk full"):
        save_dataset(make_dataset([(0, 0)], [(0, 0)], 1, 1, 1), tmp_path)
    assert path.read_bytes() == before
    assert (tmp_path / "summary.json").read_bytes() == summary_before
    assert {p.name for p in tmp_path.iterdir()} == {SNAPSHOT_NAME, "summary.json"}


def test_saves_int32_csr_arrays(dataset, tmp_path):
    header, _ = snapshot_parts(save_dataset(dataset, tmp_path))
    assert header == {
        "version": 3,
        "arrays": [
            ["users", "<U2", [2]],
            ["objects", "<U2", [2]],
            ["tags", "<U2", [1]],
            ["user_object_indptr", "<i4", [3]],
            ["user_object_indices", "<i4", [3]],
            ["user_tag_indptr", "<i4", [3]],
            ["user_tag_indices", "<i4", [2]],
        ],
    }


@pytest.fixture
def padded():
    # ids of 3 characters (12 bytes each) leave gaps before the next array
    return TripartiteDataset(
        users=EntityIndexMap(["u00", "u01", "u02"]),
        objects=EntityIndexMap(["o0", "o1"]),
        tags=EntityIndexMap(["t0"]),
        user_object=build_graph([(0, 0), (2, 1)], 3, 2),
        user_tag=build_graph([(1, 0)], 3, 1),
    )


def test_file_is_the_documented_layout(padded, tmp_path):
    path = save_dataset(padded, tmp_path)
    arrays = [
        np.array(["u00", "u01", "u02"]), np.array(["o0", "o1"]), np.array(["t0"]),
        np.array([0, 1, 1, 2], dtype="<i4"), np.array([0, 1], dtype="<i4"),
        np.array([0, 0, 1, 1], dtype="<i4"), np.array([0], dtype="<i4"),
    ]
    header, _ = snapshot_parts(path)
    assert [entry[1:] for entry in header["arrays"]] == [
        [array.dtype.str, list(array.shape)] for array in arrays
    ]
    body = b""
    for array in arrays:
        body += bytes(-len(body) % 8) + array.tobytes()
    assert path.read_bytes() == frame_snapshot(header, body)


def test_loaded_arrays_are_aligned_contiguous_and_writeable(padded, tmp_path):
    # as np.load's were: the file is read into a bytearray, not a bytes object;
    # int64 CSR arrays test the padding after the 36 bytes of user ids
    path = save_dataset(padded, tmp_path)
    rewrite_snapshot(path, **{
        f"{name}_{part}": getattr(getattr(padded, name), part).astype("<i8")
        for name in ("user_object", "user_tag") for part in ("indptr", "indices")
    })
    again = load_dataset(tmp_path)
    assert again.user_tag.indices.dtype == np.int64
    arrays = [again.users.ids, again.objects.ids, again.tags.ids]
    for graph in (again.user_object, again.user_tag):
        arrays += [graph.indptr, graph.indices]
    for array in arrays:
        assert array.flags.aligned and array.flags.c_contiguous and array.flags.writeable


def test_float_edge_fails_on_load(dataset, tmp_path):
    path = save_dataset(dataset, tmp_path)
    rewrite_snapshot(path, user_object_indices=np.array([0.5, 0.0, 1.0]))
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        load_dataset(tmp_path)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)
    return "u0"


class _Trap:
    """Unpickles by calling _record_unpickling."""

    def __reduce__(self):
        return _record_unpickling, ()


def test_pickled_member_is_refused(dataset, tmp_path):
    # an object array is written as its pointers, with dtype "|O" in the header
    path = save_dataset(dataset, tmp_path)
    rewrite_snapshot(path, users=np.array([_Trap(), "u1"], dtype=object))
    assert snapshot_parts(path)[0]["arrays"][0] == ["users", "|O", [2]]
    with pytest.raises(SnapshotError, match=re.escape(str(path))) as raised:
        load_dataset(tmp_path)
    assert "dtype '|O'" in str(raised.value)
    assert UNPICKLED == []


# dataset's user-object graph is u0: {o0}, u1: {o0, o1}; its user-tag graph
# u0: {t0}, u1: {t0}. Each case pins its reason; a failed id-map or graph
# check names its array.
@pytest.mark.parametrize(
    "damage, reason",
    [
        (
            {"drop": ("user_tag_indices",)},
            "arrays ['users', 'objects', 'tags', 'user_object_indptr', 'user_object_indices', "
            "'user_tag_indptr'], expected",
        ),
        ({"version": 2}, "format version 2, expected 3; run tridiff ingest again"),
        ({"users": np.array(["u0", "u1", "u0"])}, "users: an id repeats"),
        ({"users": np.array([["u0", "u1"]])}, "users: ids must be a 1-D str array"),
        ({"users": np.arange(2)}, "users: ids must be a 1-D str array"),
        (
            {"user_tag_indices": np.array([[0, 0, 0]])},
            "user_tag: indices must be a 1-D signed integer array",
        ),
        # a tag index out of range
        ({"user_tag_indices": np.array([0, 1])}, "user_tag: right index out of range"),
        (  # scipy would cast them
            {"user_object_indices": np.array([0.0, 0.0, 1.0])},
            "'user_object_indices': dtype '<f8' is not one a snapshot holds",
        ),
        (
            {"user_object_indptr": np.array([0.0, 1.0, 3.0])},
            "'user_object_indptr': dtype '<f8' is not one a snapshot holds",
        ),
        (  # one user too few
            {"user_object_indptr": np.array([0, 3])},
            "user_object: indptr holds 2 entries; 2 rows need 3",
        ),
        (
            {"user_object_indptr": np.array([0, 2, 1])},
            "user_object: indptr must run from 0 to len(indices)",
        ),
        (
            {"user_object_indptr": np.array([1, 1, 3])},
            "user_object: indptr must run from 0 to len(indices)",
        ),
        (  # the last index left over
            {"user_object_indptr": np.array([0, 1, 2])},
            "user_object: indptr must run from 0 to len(indices)",
        ),
        (  # u1's row unsorted
            {"user_object_indices": np.array([0, 1, 0])},
            "user_object: a row has unsorted or repeated indices",
        ),
        (  # u1 holds o1 twice
            {"user_object_indices": np.array([0, 1, 1])},
            "user_object: a row has unsorted or repeated indices",
        ),
    ],
    ids=[
        "missing", "version", "repeated", "2d_ids", "int_ids", "3_columns", "range",
        "float_indices", "float_indptr", "indptr_length", "indptr_decreasing",
        "indptr_start", "extra_index", "unsorted_row", "repeated_edge",
    ],
)
def test_bad_member_fails_on_load(dataset, tmp_path, damage, reason):
    path = save_dataset(dataset, tmp_path)
    rewrite_snapshot(path, **damage)
    with pytest.raises(SnapshotError, match=re.escape(str(path))) as raised:
        load_dataset(tmp_path)
    assert f"{path}: {reason}" in str(raised.value)


def test_truncated_snapshot_fails_on_load(dataset, tmp_path):
    path = save_dataset(dataset, tmp_path)
    data = path.read_bytes()
    for cut in (0, 2, 10, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(SnapshotError, match=re.escape(str(path))):
            load_dataset(tmp_path)


def _with_entry(header, arrays, index, **changes):
    """A snapshot of header, with array entry index changed, and arrays."""
    entries = [list(entry) for entry in header["arrays"]]
    for field, value in changes.items():
        entries[index][("name", "dtype", "shape").index(field)] = value
    return frame_snapshot({**header, "arrays": entries}, arrays)


# each ends in a valid CRC, so the damage is found by the header's checks, and
# the error says which; dataset's arrays are users, objects, tags (2 x, 2 x and
# 1 x <U2), then the int32 CSR arrays
HEADER_DAMAGES = {
    "bad_magic": ("not a tridiff snapshot", lambda header, arrays, data: sealed(
        b"PK\x03\x04\0\0\0\0" + data[8:-4]
    )),
    "length_past_end": ("too short for its header", lambda header, arrays, data: sealed(
        data[:8] + len(data).to_bytes(4, "little") + data[12:-4]
    )),
    "json": ("Expecting", lambda header, arrays, data: frame_snapshot(
        b'{"version": 3, "arrays": [', arrays
    )),
    "nested_json": ("recursion", lambda header, arrays, data: frame_snapshot(
        b"[" * 100_000, arrays
    )),
    "not_an_object": ("not a JSON object", lambda header, arrays, data: frame_snapshot(
        b"[3]", arrays
    )),
    "version_2": ("format version 2, expected 3", lambda header, arrays, data: frame_snapshot(
        {**header, "version": 2}, arrays
    )),
    # 16 bytes, as the users' entry they replace, so only the dtype is wrong
    "dtype_object": ("dtype '|O'", lambda header, arrays, data: _with_entry(
        header, arrays, 0, dtype="|O", shape=[2]
    )),
    "dtype_float": ("dtype '<f8'", lambda header, arrays, data: _with_entry(
        header, arrays, 0, dtype="<f8", shape=[2]
    )),
    "dtype_structured": ("dtype '|V8'", lambda header, arrays, data: _with_entry(
        header, arrays, 0, dtype="|V8", shape=[2]
    )),
    # 2**62 * 4 * 4 bytes; a wrapping int64 product would make it 0
    "shape_overflow": ("runs past the end", lambda header, arrays, data: _with_entry(
        header, arrays, 6, shape=[2**62, 4]
    )),
    "sizes": ("the arrays end at byte", lambda header, arrays, data: _with_entry(
        header, arrays, 6, shape=[1]
    )),
    "trailing_byte": ("the arrays end at byte", lambda header, arrays, data: sealed(
        data[:-4] + b"\0"
    )),
}


@pytest.mark.parametrize("reason, damage", HEADER_DAMAGES.values(), ids=HEADER_DAMAGES.keys())
def test_damaged_header_fails_on_load(dataset, tmp_path, reason, damage):
    path = save_dataset(dataset, tmp_path)
    path.write_bytes(damage(*snapshot_parts(path), path.read_bytes()))
    with pytest.raises(SnapshotError, match=f"{re.escape(str(path))}: .*{re.escape(reason)}"):
        load_dataset(tmp_path)


def test_npy_in_place_of_snapshot_fails_on_load(tmp_path):
    path = tmp_path / SNAPSHOT_NAME
    with path.open("wb") as fh:
        np.save(fh, np.arange(4))
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        load_dataset(tmp_path)


def _contents(dataset):
    return (
        dataset.users.ids.tolist(),
        dataset.objects.ids.tolist(),
        dataset.tags.ids.tolist(),
        dataset.user_object.edge_array().tolist(),
        dataset.user_tag.edge_array().tolist(),
    )


def test_flipped_bit_fails(dataset, tmp_path):
    # the CRC-32 covers the header, the padding and the arrays, and a CRC-32
    # finds every single-bit error, in the stored CRC's own bits too
    # each flip is written in place, unbuffered, and undone before the next
    # position: rewriting the file whole, which truncates it, took minutes on ext4
    path = save_dataset(dataset, tmp_path)
    data = path.read_bytes()
    with path.open("r+b", buffering=0) as file:
        for position, byte in enumerate(data):
            for bit in range(8):
                file.seek(position)
                file.write(bytes([byte ^ 1 << bit]))
                with pytest.raises(SnapshotError, match=re.escape(str(path))):
                    load_dataset(tmp_path)
            file.seek(position)
            file.write(bytes([byte]))
    assert path.read_bytes() == data


# dtype strings near the ones a snapshot holds, and ones it must refuse
DTYPES = [
    "<U2", "<U1", "<U4", "<U0", "<U99999999", "<U100000000", "U2", ">U2", "<i4", "<i8",
    "<i2", ">i4", "|i1", "<u4", "<f8", "|O", "O", "|V8", "|b1", "<M8[s]",
]
names = st.one_of(st.sampled_from(snapshot._ARRAYS), st.text(max_size=6))
dtypes = st.one_of(st.sampled_from(DTYPES), st.text(max_size=6))
shapes = st.lists(
    st.one_of(st.integers(0, 9), st.integers(-2, 2**70), st.just(True), st.just(2.0)),
    max_size=3,
)


def _described(header: bytes, data: bytes) -> tuple:
    """_contents of the dataset that header describes in the file data,
    read from the documented layout without the library's reader."""
    arrays, offset = {}, 12 + len(header)
    for name, dtype, shape in json.loads(header)["arrays"]:
        offset += -offset % 8
        arrays[name] = np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape)
        offset += arrays[name].nbytes
    edges = []
    for graph in ("user_object", "user_tag"):
        indptr = arrays[f"{graph}_indptr"]
        rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        edges.append(np.column_stack([rows, arrays[f"{graph}_indices"]]).tolist())
    return (*(arrays[name].tolist() for name in ("users", "objects", "tags")), *edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_untrusted_header_loads_what_it_describes_or_fails(data):
    # a header of arbitrary names, dtype strings and shapes, each entry kept
    # or not, over the arrays' bytes cut or lengthened, with a valid CRC: the
    # load either raises SnapshotError or gives the dataset the header
    # describes, and never allocates much more than the file's size
    dataset = make_dataset([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0)], 2, 2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_dataset(dataset, Path(tmp))
        header, arrays = snapshot_parts(path)
        drawn = [
            data.draw(st.just(entry) | st.tuples(
                st.just(name) | names, st.just(dtype) | dtypes, st.just(shape) | shapes
            ))
            for entry in header["arrays"] if data.draw(st.integers(0, 9))  # or dropped
            for name, dtype, shape in [entry]
        ]
        drawn += data.draw(st.lists(st.tuples(names, dtypes, shapes), max_size=2))
        header = json.dumps({
            **header, "arrays": data.draw(st.just(header["arrays"]) | st.just(drawn))
        }).encode("utf-8")
        cut = data.draw(st.integers(-len(arrays), 24))
        damaged = frame_snapshot(header, arrays[:cut] if cut < 0 else arrays + bytes(cut))
        path.unlink()  # a new file: truncating a non-empty one is slow on ext4
        path.write_bytes(damaged)
        tracemalloc.start()
        try:
            again = load_dataset(Path(tmp))
        except SnapshotError:
            return
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 64 * len(damaged) + 2**20
    assert _contents(again) == _described(header, damaged)


def test_id_ending_in_nul_is_refused_on_save(tmp_path):
    # a numpy str array drops trailing NULs, so "u0\0" would load as "u0";
    # the map refuses it, so no dataset holding it reaches save_dataset
    dataset = make_dataset([(0, 0)], [(0, 0)], 1, 1, 1)
    with pytest.raises(IndexMapError, match="NUL"):
        TripartiteDataset(
            users=EntityIndexMap(["u0\0"]),
            objects=dataset.objects,
            tags=dataset.tags,
            user_object=dataset.user_object,
            user_tag=dataset.user_tag,
        )
    assert list(tmp_path.iterdir()) == []


# ids of mixed length, non-ASCII ones included; a trailing NUL is refused on save
ids = st.lists(
    st.text(max_size=12).filter(lambda s: not s.endswith("\0")),
    min_size=1, max_size=8, unique=True,
)


@st.composite
def datasets(draw):
    """Small datasets in which some users, objects and tags have no edges."""
    users, objects, tags = draw(ids), draw(ids), draw(ids)
    m, n, r = len(users), len(objects), len(tags)
    uo = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=30))
    ut = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, r - 1)), max_size=30))
    return TripartiteDataset(
        users=EntityIndexMap(users),
        objects=EntityIndexMap(objects),
        tags=EntityIndexMap(tags),
        user_object=build_graph(uo, m, n),
        user_tag=build_graph(ut, m, r),
    )


def _cells(dataset, kind):
    try:
        return evaluate_split(split(dataset, 0.7, 3), kind, (0.0, 0.4, 1.0), (1, 3)).tolist()
    except UndefinedMetricError:
        return None


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_round_trip_then_evaluate(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, Path(tmp))
        again = load_dataset(Path(tmp))
    assert _contents(again) == _contents(dataset)
    for kind in ("diffusion", "cosine", "jaccard"):
        assert _cells(again, kind) == _cells(dataset, kind)
