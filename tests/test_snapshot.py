import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.core import EntityIndexMap, IndexMapError, TripartiteDataset, build_graph
from tridiff.evaluation import UndefinedMetricError, evaluate_split
from tridiff.ingest import split
from tridiff.snapshot import SNAPSHOT_NAME, SnapshotError, load_dataset, save_dataset

from conftest import make_dataset, rewrite_snapshot


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

    def write_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", write_then_fail)
    with pytest.raises(SnapshotError, match=f"{re.escape(str(path))}: disk full"):
        save_dataset(make_dataset([(0, 0)], [(0, 0)], 1, 1, 1), tmp_path)
    assert path.read_bytes() == before
    assert (tmp_path / "summary.json").read_bytes() == summary_before
    assert {p.name for p in tmp_path.iterdir()} == {SNAPSHOT_NAME, "summary.json"}


def test_saves_int32_csr_arrays(dataset, tmp_path):
    path = save_dataset(dataset, tmp_path)
    with np.load(path) as npz:
        assert sorted(npz.files) == sorted([
            "format_version", "users", "objects", "tags",
            "user_object_indptr", "user_object_indices", "user_tag_indptr", "user_tag_indices",
        ])
        assert npz["user_object_indptr"].tolist() == [0, 1, 3]
        assert npz["user_object_indices"].tolist() == [0, 0, 1]
        assert npz["user_tag_indptr"].tolist() == [0, 1, 2]
        assert npz["user_tag_indices"].tolist() == [0, 0]
        assert {npz[name].dtype for name in npz.files if name.startswith("user_")} == {
            np.dtype(np.int32)
        }


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
    path = save_dataset(dataset, tmp_path)
    rewrite_snapshot(path, users=np.array([_Trap(), "u1"], dtype=object))
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        load_dataset(tmp_path)
    assert UNPICKLED == []


# dataset's user-object graph is u0: {o0}, u1: {o0, o1}; its user-tag graph
# u0: {t0}, u1: {t0}
@pytest.mark.parametrize(
    "damage",
    [
        {"drop": ("user_tag_indices",)},
        {"format_version": np.array(1)},
        {"users": np.array(["u0", "u1", "u0"])},  # a repeated id
        {"users": np.array([["u0", "u1"]])},
        {"users": np.arange(2)},
        {"user_tag_indices": np.array([[0, 0, 0]])},
        {"user_tag_indices": np.array([0, 1])},  # tag index out of range
        {"user_object_indices": np.array([0.0, 0.0, 1.0])},  # scipy would cast them
        {"user_object_indptr": np.array([0.0, 1.0, 3.0])},
        {"user_object_indptr": np.array([0, 3])},  # one user too few
        {"user_object_indptr": np.array([0, 2, 1])},
        {"user_object_indptr": np.array([1, 1, 3])},
        {"user_object_indptr": np.array([0, 1, 2])},  # the last index left over
        {"user_object_indices": np.array([0, 1, 0])},  # u1's row unsorted
        {"user_object_indices": np.array([0, 1, 1])},  # u1 holds o1 twice
    ],
    ids=[
        "missing", "version", "repeated", "2d_ids", "int_ids", "3_columns", "range",
        "float_indices", "float_indptr", "indptr_length", "indptr_decreasing",
        "indptr_start", "extra_index", "unsorted_row", "repeated_edge",
    ],
)
def test_bad_member_fails_on_load(dataset, tmp_path, damage):
    path = save_dataset(dataset, tmp_path)
    rewrite_snapshot(path, **damage)
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        load_dataset(tmp_path)


def test_truncated_snapshot_fails_on_load(dataset, tmp_path):
    path = save_dataset(dataset, tmp_path)
    data = path.read_bytes()
    for cut in (0, 2, 10, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(SnapshotError, match=re.escape(str(path))):
            load_dataset(tmp_path)


@pytest.mark.parametrize(
    "offset, value",
    # in the first central directory header: version needed, flags (bit 0:
    # encrypted), compression method; then the high byte of the directory's
    # offset in the end record
    [(6, 0xFF), (8, 0x01), (10, 0xFF), (-3, 0xFF)],
    ids=["version_needed", "encrypted", "compression", "directory_offset"],
)
def test_damaged_zip_metadata_fails_on_load(dataset, tmp_path, offset, value):
    path = save_dataset(dataset, tmp_path)
    data = bytearray(path.read_bytes())
    data[offset if offset < 0 else data.find(b"PK\x01\x02") + offset] = value
    path.write_bytes(data)
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flipped_bit_fails_or_loads_the_same(data):
    # the zip CRC-32 of each member catches damage to the arrays; damage to
    # zip metadata that is not read back may load, but then loads the same.
    # Half the flips land in the central directory, whose damage raises the
    # most kinds of error.
    dataset = make_dataset([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0)], 2, 2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_dataset(dataset, Path(tmp))
        damaged = bytearray(path.read_bytes())
        directory = damaged.find(b"PK\x01\x02")
        position = st.one_of(
            st.integers(0, len(damaged) - 1), st.integers(directory, len(damaged) - 1)
        )
        damaged[data.draw(position)] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(damaged)
        try:
            again = load_dataset(Path(tmp))
        except SnapshotError:
            return
    assert _contents(again) == _contents(dataset)


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
