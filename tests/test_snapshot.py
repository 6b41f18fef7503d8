import json

import pytest

from tridiff.core import GraphConstructionError
from tridiff.snapshot import SNAPSHOT_NAME, load_dataset, save_dataset

from conftest import make_dataset


@pytest.fixture
def dataset():
    return make_dataset([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0)], 2, 2, 1)


def test_round_trip(dataset, tmp_path):
    save_dataset(dataset, tmp_path)
    again = load_dataset(tmp_path)
    assert again.users.external_ids == dataset.users.external_ids
    assert again.user_object.edges() == dataset.user_object.edges()
    assert again.user_tag.edges() == dataset.user_tag.edges()
    assert [p.name for p in tmp_path.iterdir()] == [SNAPSHOT_NAME]


def test_failed_write_keeps_previous_snapshot(dataset, tmp_path, monkeypatch):
    path = save_dataset(dataset, tmp_path)
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"users": [')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(make_dataset([(0, 0)], [(0, 0)], 1, 1, 1), tmp_path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [SNAPSHOT_NAME]


def test_float_edge_fails_on_load(dataset, tmp_path):
    path = save_dataset(dataset, tmp_path)
    payload = json.loads(path.read_text())
    payload["user_object"][0] = [0.5, 0]
    path.write_text(json.dumps(payload))
    with pytest.raises(GraphConstructionError):
        load_dataset(tmp_path)
