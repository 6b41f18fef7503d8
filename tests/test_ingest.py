import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.ingest import RawRecords, core_filter, parse, split


def records_from_dataset(dataset) -> RawRecords:
    """Rebuild raw records from a dataset (for idempotence checks)."""
    recs = RawRecords()
    for u, o in dataset.user_object.edges():
        recs.object_events.append(
            (dataset.users.external_ids[u], dataset.objects.external_ids[o], None)
        )
    for u, t in dataset.user_tag.edges():
        recs.tag_events.append(
            (dataset.users.external_ids[u], None, dataset.tags.external_ids[t])
        )
    return recs


class TestParse:
    def test_basic_object_line(self):
        recs = parse(["7\t42\t5\n"], [], rating_threshold=0)
        assert recs.object_events == [("7", "42", 5.0)]
        assert recs.errors == []

    def test_threshold_boundary(self):
        kept = parse(["7\t42\t5"], [], rating_threshold=5)
        assert len(kept.object_events) == 1
        dropped = parse(["7\t42\t4"], [], rating_threshold=5)
        assert dropped.object_events == []

    def test_tag_normalization(self):
        recs = parse([], ["7\t42\tSci-Fi \n"])
        assert recs.tag_events == [("7", "42", "sci-fi")]

    def test_two_column_tag_line(self):
        recs = parse([], ["7\tFunny"])
        assert recs.tag_events == [("7", None, "funny")]

    def test_comma_delimiter_autodetect(self):
        recs = parse(["7,42,3"], ["7,42,funny"])
        assert recs.object_events == [("7", "42", 3.0)]
        assert recs.tag_events == [("7", "42", "funny")]

    def test_header_skipped(self):
        recs = parse(["userId\tmovieId\trating", "7\t42\t3"], [])
        assert recs.object_events == [("7", "42", 3.0)]

    def test_timestamp_ignored(self):
        recs = parse(["7\t42\t3\t964982703"], ["7\t42\tfunny\t964982703"])
        assert recs.object_events == [("7", "42", 3.0)]
        assert recs.tag_events == [("7", "42", "funny")]

    def test_rating_optional(self):
        recs = parse(["7\t42"], [], rating_threshold=5)
        assert recs.object_events == [("7", "42", None)]

    def test_malformed_lines_reported_not_raised(self):
        recs = parse(
            ["7\t42\tbogus", "8", "9\t10\t3"],
            ["5\t6\t  \t0"],
        )
        assert recs.object_events == [("9", "10", 3.0)]
        reasons = {(e.stream, e.line_number) for e in recs.errors}
        assert ("objects", 1) in reasons
        assert ("objects", 2) in reasons
        assert ("tags", 1) in reasons

    def test_rating_out_of_range_reported(self):
        recs = parse(["7\t42\t9"], [])
        assert recs.object_events == []
        assert len(recs.errors) == 1

    def test_empty_input(self):
        recs = parse([], [])
        assert recs.object_events == [] and recs.tag_events == []


class TestCoreFilter:
    def test_minimal_sub_threshold(self):
        recs = RawRecords(
            object_events=[("u1", "o1", None)], tag_events=[("u1", None, "t1")]
        )
        assert core_filter(recs).is_empty

    def test_minimal_passing(self):
        recs = RawRecords(
            object_events=[("u1", "o1", None), ("u2", "o1", None)],
            tag_events=[("u1", None, "t1"), ("u2", None, "t1")],
        )
        ds = core_filter(recs)
        assert (len(ds.users), len(ds.objects), len(ds.tags)) == (2, 1, 1)
        assert ds.user_object.edge_count == 2
        assert ds.user_tag.edge_count == 2

    def test_cascading_removal(self):
        # o2 only kept through u3; u3 falls (no tag), which drops o2, which
        # drops u2's second object but u2 survives through o1.
        recs = RawRecords(
            object_events=[
                ("u1", "o1", None),
                ("u2", "o1", None),
                ("u2", "o2", None),
                ("u3", "o2", None),
            ],
            tag_events=[("u1", None, "t1"), ("u2", None, "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.external_ids == ("u1", "u2")
        assert ds.objects.external_ids == ("o1",)

    def test_first_seen_order(self):
        recs = RawRecords(
            object_events=[
                ("u2", "o2", None),
                ("u1", "o1", None),
                ("u1", "o2", None),
                ("u2", "o1", None),
            ],
            tag_events=[("u2", None, "t1"), ("u1", None, "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.external_ids == ("u2", "u1")
        assert ds.objects.external_ids == ("o2", "o1")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
        ),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=40
        ),
    )
    def test_postconditions_and_idempotence(self, uo, ut):
        recs = RawRecords(
            object_events=[(f"u{u}", f"o{o}", None) for u, o in uo],
            tag_events=[(f"u{u}", None, f"t{t}") for u, t in ut],
        )
        ds = core_filter(recs)
        for x in range(len(ds.objects)):
            assert ds.user_object.right_degree(x) >= 2
        for t in range(len(ds.tags)):
            assert ds.user_tag.right_degree(t) >= 2
        for u in range(len(ds.users)):
            assert ds.user_object.left_degree(u) >= 1
            assert ds.user_tag.left_degree(u) >= 1
        # idempotence up to index relabeling: compare by external ids
        def ext_edges(d):
            uo = {
                (d.users.external_ids[u], d.objects.external_ids[o])
                for u, o in d.user_object.edges()
            }
            ut = {
                (d.users.external_ids[u], d.tags.external_ids[t])
                for u, t in d.user_tag.edges()
            }
            return uo, ut

        again = core_filter(records_from_dataset(ds))
        assert set(again.users.external_ids) == set(ds.users.external_ids)
        assert ext_edges(again) == ext_edges(ds)


class TestSplit:
    @pytest.fixture
    def dataset(self):
        recs = RawRecords(
            object_events=[
                (f"u{i}", f"o{j}", None) for i in range(5) for j in range(4)
            ],
            tag_events=[(f"u{i}", None, "t0") for i in range(5)],
        )
        return core_filter(recs)

    def test_degenerate_full_training(self, dataset):
        sp = split(dataset, 1.0, seed=3)
        assert sp.test_count == 0
        assert sp.training.user_object.edges() == dataset.user_object.edges()

    def test_partition_and_determinism(self, dataset):
        sp1 = split(dataset, 0.9, seed=11)
        sp2 = split(dataset, 0.9, seed=11)
        assert sp1.test_edges == sp2.test_edges
        assert sp1.training.user_object.edges() == sp2.training.user_object.edges()
        train = set(sp1.training.user_object.edges())
        assert train | sp1.test_edges == set(dataset.user_object.edges())
        assert train & sp1.test_edges == set()
        assert len(train) == round(0.9 * dataset.user_object.edge_count)

    def test_ten_edges_nine_one(self):
        recs = RawRecords(
            object_events=[("u0", f"o{j}", None) for j in range(5)]
            + [("u1", f"o{j}", None) for j in range(5)],
            tag_events=[("u0", None, "t0"), ("u1", None, "t0")],
        )
        ds = core_filter(recs)
        assert ds.user_object.edge_count == 10
        sp = split(ds, 0.9, seed=0)
        assert sp.test_count == 1
        assert sp.training.user_object.edge_count == 9

    def test_different_seed_differs(self, dataset):
        outcomes = {frozenset(split(dataset, 0.8, seed=s).test_edges) for s in range(10)}
        assert len(outcomes) > 1

    def test_user_tag_untouched(self, dataset):
        sp = split(dataset, 0.5, seed=2)
        assert sp.training.user_tag.edges() == dataset.user_tag.edges()

    def test_index_maps_preserved(self, dataset):
        sp = split(dataset, 0.5, seed=2)
        assert sp.training.users.external_ids == dataset.users.external_ids
        assert sp.training.objects.external_ids == dataset.objects.external_ids

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_bad_fraction(self, dataset, frac):
        with pytest.raises(ValueError):
            split(dataset, frac, seed=0)

    def test_np_matches_rounding_rule(self, dataset):
        e = dataset.user_object.edge_count
        for frac in (0.9, 0.5, 0.37):
            sp = split(dataset, frac, seed=1)
            assert sp.test_count == e - round(frac * e)
