import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.ingest import RawRecords, core_filter, parse, split


def reference_core(uo, ut):
    """The core by its definition, by brute force over all user subsets.

    A user set U is closed when each of its users holds an object and a tag
    that at least two users of U hold. The union of closed sets is closed,
    so the core is the union of all of them. Users are ordered by their
    first object event, objects and tags by their first event that survives.
    Returns (users, objects, tags, user-object edges, user-tag edges).
    """
    candidates = sorted({u for u, _ in uo} | {u for u, _ in ut})

    def live(events, users):
        holders = {}
        for u, x in events:
            if u in users:
                holders.setdefault(x, set()).add(u)
        return {x for x, us in holders.items() if len(us) >= 2}

    def closed(users):
        objs, tags = live(uo, users), live(ut, users)
        return all(
            any(v == u and o in objs for v, o in uo)
            and any(v == u and t in tags for v, t in ut)
            for u in users
        )

    core = set()
    for bits in range(1 << len(candidates)):
        users = {u for i, u in enumerate(candidates) if bits >> i & 1}
        if closed(users):
            core |= users
    objs, tags = live(uo, core), live(ut, core)
    kept_uo = [(u, o) for u, o in uo if u in core and o in objs]
    kept_ut = [(u, t) for u, t in ut if u in core and t in tags]
    return (
        tuple(dict.fromkeys(u for u, _ in uo if u in core)),
        tuple(dict.fromkeys(o for _, o in kept_uo)),
        tuple(dict.fromkeys(t for _, t in kept_ut)),
        set(kept_uo),
        set(kept_ut),
    )


def external_pairs(dataset):
    """The dataset's two edge lists in external ids, in index order."""
    users = dataset.users.external_ids
    return (
        [(users[u], dataset.objects.external_ids[o]) for u, o in edge_list(dataset.user_object)],
        [(users[u], dataset.tags.external_ids[t]) for u, t in edge_list(dataset.user_tag)],
    )


def external_edges(dataset):
    """The dataset's two edge sets in external ids."""
    return tuple(map(set, external_pairs(dataset)))


def edge_list(graph):
    return graph.edge_array().tolist()


def pair_set(edges: np.ndarray) -> set:
    return set(map(tuple, edges.tolist()))


def decoded(recs: RawRecords):
    """The parsed (user, object) and (user, tag) events in external ids."""
    users = recs.users.external_ids
    return (
        [(users[u], recs.objects.external_ids[o]) for u, o in recs.object_events.tolist()],
        [(users[u], recs.tags.external_ids[t]) for u, t in recs.tag_events.tolist()],
    )


event_lists = st.tuples(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=40),
)


def records(uo, ut) -> RawRecords:
    """Parsed records of (user, object) and (user, tag) id pairs; a header
    line comes first, so ids need not be numbers."""
    return parse(
        ["user\tobject"] + [f"{u}\t{o}" for u, o in uo],
        ["user\ttag"] + [f"{u}\t{t}" for u, t in ut],
    )


def records_of(uo, ut) -> RawRecords:
    return records([(f"u{u}", f"o{o}") for u, o in uo], [(f"u{u}", f"t{t}") for u, t in ut])


def records_from_dataset(dataset) -> RawRecords:
    """Rebuild raw records from a dataset (for idempotence checks)."""
    return records(*external_pairs(dataset))


# Event rows for parse: ids shared by both streams, a user-only row that
# is refused, ratings in and out of [0.5, 5], and tag rows of two and three
# columns whose tags differ in case or are blank.
USERS = st.sampled_from(["1", "2", "3", "10", "42"])
OBJECTS = st.sampled_from(["7", "8", "m1"])
OBJECT_ROWS = st.tuples(USERS) | st.tuples(
    USERS, OBJECTS, st.sampled_from(["", "0.4", "0.5", "1", "2.5", "4", "5", "9", "bad"])
)
TAG_ROWS = st.tuples(USERS) | st.tuples(
    USERS, st.none() | OBJECTS, st.sampled_from(["funny", "Funny", "DARK", "dark", "sci-fi", " "])
)


def first_seen(ids) -> tuple:
    return tuple(dict.fromkeys(ids))


def reference_parse(object_rows, tag_rows, threshold):
    """The accepted (user, object) and (user, tag) pairs in file order, and
    the number of refused rows, by the input format's rules."""
    uo, ut, refused = [], [], 0
    for row in object_rows:
        if len(row) == 1 or row[2] in ("0.4", "9", "bad"):
            refused += 1
        elif row[2] == "" or float(row[2]) >= threshold:
            uo.append(row[:2])
    for row in tag_rows:
        if len(row) == 1 or not row[2].strip():
            refused += 1
        else:
            ut.append((row[0], row[2].lower()))
    return uo, ut, refused


class TestParse:
    def test_basic_object_line(self):
        recs = parse(["7\t42\t5\n"], [], rating_threshold=0)
        assert decoded(recs) == ([("7", "42")], [])
        assert recs.errors == ()

    def test_threshold_boundary(self):
        kept = parse(["7\t42\t5"], [], rating_threshold=5)
        assert len(kept.object_events) == 1
        dropped = parse(["7\t42\t4"], [], rating_threshold=5)
        assert len(dropped.object_events) == 0
        assert dropped.users.external_ids == dropped.objects.external_ids == ()

    def test_tag_normalization(self):
        recs = parse([], ["7\t42\tSci-Fi \n"])
        assert decoded(recs)[1] == [("7", "sci-fi")]

    def test_two_column_tag_line(self):
        recs = parse([], ["7\tFunny"])
        assert decoded(recs)[1] == [("7", "funny")]

    def test_comma_delimiter_autodetect(self):
        recs = parse(["7,42,3"], ["7,42,funny"])
        assert decoded(recs) == ([("7", "42")], [("7", "funny")])

    def test_movielens_double_colon(self):
        # MovieLens ratings.dat / tags.dat: no header, "::" between fields;
        # MovieLens-10M rates in half stars from 0.5
        recs = parse(
            [
                "1::122::5::838985046",
                "1::185::4.5::838983525",
                "2::292::3::838983421",
                "2::122::0.5::838985046",
            ],
            ["15::4973::excellent!::1215184630"],
        )
        assert decoded(recs) == (
            [("1", "122"), ("1", "185"), ("2", "292"), ("2", "122")],
            [("15", "excellent!")],
        )
        assert recs.errors == ()

    def test_header_skipped(self):
        recs = parse(["userId\tmovieId\trating", "7\t42\t3"], [])
        assert decoded(recs)[0] == [("7", "42")]
        assert recs.headers == {"objects": "userId\tmovieId\trating"}
        # a line 1 of data with a string user id is taken as a header, and
        # recorded as one
        recs = parse(["alice\to1\t3", "bob\to1\t3"], ["7\tfunny", "8\tfunny"])
        assert decoded(recs)[0] == [("bob", "o1")]
        assert recs.headers == {"objects": "alice\to1\t3"}
        assert recs.errors == ()

    def test_timestamp_ignored(self):
        recs = parse(["7\t42\t3\t964982703"], ["7\t42\tfunny\t964982703"])
        assert decoded(recs) == ([("7", "42")], [("7", "funny")])

    def test_rating_optional(self):
        recs = parse(["7\t42"], [], rating_threshold=5)
        assert decoded(recs)[0] == [("7", "42")]

    def test_malformed_lines_reported_not_raised(self):
        recs = parse(
            ["7\t42\tbogus", "8", "9\t10\t3"],
            ["5\t6\t  \t0"],
        )
        assert decoded(recs) == ([("9", "10")], [])
        reasons = {(e.stream, e.line_number) for e in recs.errors}
        assert ("objects", 1) in reasons
        assert ("objects", 2) in reasons
        assert ("tags", 1) in reasons
        # a refused line indexes no id
        assert recs.users.external_ids == ("9",)

    def test_delimiter_from_first_line_that_holds_one(self):
        # a lone "5" holds no delimiter, so it decides nothing and is refused
        recs = parse(["5", "1\t2\t3", "2\t2\t4"], ["7", "7,42,funny"])
        assert decoded(recs) == ([("1", "2"), ("2", "2")], [("7", "funny")])
        assert [(e.stream, e.line_number) for e in recs.errors] == [("objects", 1), ("tags", 1)]
        # tab is preferred over "::" and comma on the line that decides
        recs = parse(["", "1\t2::x,y\t3", "2\t3\t4"], [])
        assert decoded(recs)[0] == [("1", "2::x,y"), ("2", "3")]

    def test_nan_threshold_refused(self):
        with pytest.raises(ValueError, match="nan"):
            parse(["7\t42\t5"], [], rating_threshold=float("nan"))

    def test_rating_out_of_range_reported(self):
        for rating in ("9", "0.4"):
            recs = parse([f"7\t42\t{rating}"], [])
            assert len(recs.object_events) == 0
            assert len(recs.errors) == 1
            assert recs.errors[0].reason == f"rating {float(rating)} outside [0.5, 5]"

    def test_empty_input(self):
        recs = parse([], [])
        assert recs.object_events.shape == recs.tag_events.shape == (0, 2)
        assert recs.headers == {}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(OBJECT_ROWS, max_size=25),
        st.lists(TAG_ROWS, max_size=25),
        st.sampled_from([0, 0.5, 3, 5]),
        st.sampled_from(["\t", "::", ","]),
    )
    def test_coding_matches_first_seen_reference(self, object_rows, tag_rows, threshold, delim):
        object_lines = [f"user{delim}object{delim}rating"]
        object_lines += [delim.join(filter(None, row)) for row in object_rows]
        tag_lines = [f"user{delim}object{delim}tag"]
        tag_lines += [delim.join(filter(None, row)) for row in tag_rows]
        recs = parse(object_lines, tag_lines, rating_threshold=threshold)
        uo, ut, refused = reference_parse(object_rows, tag_rows, threshold)
        assert decoded(recs) == (uo, ut)
        assert recs.users.external_ids == first_seen(u for u, _ in uo + ut)
        assert recs.objects.external_ids == first_seen(o for _, o in uo)
        assert recs.tags.external_ids == first_seen(t for _, t in ut)
        assert len(recs.errors) == refused
        assert recs.headers == {"objects": object_lines[0], "tags": tag_lines[0]}


class TestCoreFilter:
    def test_minimal_sub_threshold(self):
        recs = records([("u1", "o1")], [("u1", "t1")])
        assert core_filter(recs).is_empty

    def test_minimal_passing(self):
        recs = records(
            [("u1", "o1"), ("u2", "o1")],
            [("u1", "t1"), ("u2", "t1")],
        )
        ds = core_filter(recs)
        assert (len(ds.users), len(ds.objects), len(ds.tags)) == (2, 1, 1)
        assert ds.user_object.edge_count == 2
        assert ds.user_tag.edge_count == 2

    def test_cascading_removal(self):
        # o2 only kept through u3; u3 falls (no tag), which drops o2, which
        # drops u2's second object but u2 survives through o1.
        recs = records(
            [("u1", "o1"), ("u2", "o1"), ("u2", "o2"), ("u3", "o2")],
            [("u1", "t1"), ("u2", "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.external_ids == ("u1", "u2")
        assert ds.objects.external_ids == ("o1",)

    def test_first_seen_order(self):
        recs = records(
            [("u2", "o2"), ("u1", "o1"), ("u1", "o2"), ("u2", "o1")],
            [("u2", "t1"), ("u1", "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.external_ids == ("u2", "u1")
        assert ds.objects.external_ids == ("o2", "o1")

    def test_user_order_counts_dropped_objects(self):
        # u2's first object event is of o9, which falls; u2 still precedes u1
        recs = records(
            [("u2", "o9"), ("u1", "o1"), ("u2", "o1")],
            [("u1", "t1"), ("u2", "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.external_ids == ("u2", "u1")
        assert ds.objects.external_ids == ("o1",)

    @settings(max_examples=150, deadline=None)
    @given(event_lists)
    def test_matches_brute_force_definition(self, events):
        uo = [(f"u{u}", f"o{o}") for u, o in events[0]]
        ut = [(f"u{u}", f"t{t}") for u, t in events[1]]
        users, objects, tags, ref_uo, ref_ut = reference_core(uo, ut)
        ds = core_filter(records_of(*events))
        assert ds.users.external_ids == users
        assert ds.objects.external_ids == objects
        assert ds.tags.external_ids == tags
        assert external_edges(ds) == (ref_uo, ref_ut)

    @settings(max_examples=100, deadline=None)
    @given(event_lists, st.randoms(use_true_random=False))
    def test_event_order_invariance(self, events, rnd):
        uo, ut = events
        ds = core_filter(records_of(uo, ut))
        shuffled_uo, shuffled_ut = rnd.sample(uo, len(uo)), rnd.sample(ut, len(ut))
        again = core_filter(records_of(shuffled_uo, shuffled_ut))
        for a, b in (
            (again.users, ds.users), (again.objects, ds.objects), (again.tags, ds.tags)
        ):
            assert set(a.external_ids) == set(b.external_ids)
        assert external_edges(again) == external_edges(ds)

    @settings(max_examples=60, deadline=None)
    @given(event_lists)
    def test_postconditions_and_idempotence(self, events):
        ds = core_filter(records_of(*events))
        assert (ds.user_object.right_degrees >= 2).all()
        assert (ds.user_tag.right_degrees >= 2).all()
        for u in range(len(ds.users)):
            assert ds.user_object.left_degree(u) >= 1
            assert ds.user_tag.left_degree(u) >= 1
        # idempotence up to index relabeling: compare by external ids
        again = core_filter(records_from_dataset(ds))
        assert set(again.users.external_ids) == set(ds.users.external_ids)
        assert external_edges(again) == external_edges(ds)


class TestSplit:
    @pytest.fixture
    def dataset(self):
        recs = records(
            [(f"u{i}", f"o{j}") for i in range(5) for j in range(4)],
            [(f"u{i}", "t0") for i in range(5)],
        )
        return core_filter(recs)

    def test_degenerate_full_training(self, dataset):
        sp = split(dataset, 1.0, seed=3)
        assert len(sp.test_edges) == 0
        assert edge_list(sp.training.user_object) == edge_list(dataset.user_object)

    def test_partition_and_determinism(self, dataset):
        sp1 = split(dataset, 0.9, seed=11)
        sp2 = split(dataset, 0.9, seed=11)
        assert np.array_equal(sp1.test_edges, sp2.test_edges)
        assert edge_list(sp1.training.user_object) == edge_list(sp2.training.user_object)
        assert sp1.test_edges.tolist() == sorted(sp1.test_edges.tolist())
        train = pair_set(sp1.training.user_object.edge_array())
        test = pair_set(sp1.test_edges)
        assert train | test == pair_set(dataset.user_object.edge_array())
        assert train & test == set()
        assert len(train) == round(0.9 * dataset.user_object.edge_count)

    def test_ten_edges_nine_one(self):
        recs = records(
            [("u0", f"o{j}") for j in range(5)] + [("u1", f"o{j}") for j in range(5)],
            [("u0", "t0"), ("u1", "t0")],
        )
        ds = core_filter(recs)
        assert ds.user_object.edge_count == 10
        sp = split(ds, 0.9, seed=0)
        assert len(sp.test_edges) == 1
        assert sp.training.user_object.edge_count == 9

    def test_different_seed_differs(self, dataset):
        outcomes = {split(dataset, 0.8, seed=s).test_edges.tobytes() for s in range(10)}
        assert len(outcomes) > 1

    def test_user_tag_untouched(self, dataset):
        sp = split(dataset, 0.5, seed=2)
        assert edge_list(sp.training.user_tag) == edge_list(dataset.user_tag)

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
            assert len(sp.test_edges) == e - round(frac * e)
