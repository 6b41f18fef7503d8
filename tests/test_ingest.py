import math
import re
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiff.core import EntityIndexMap, build_graph
from tridiff.ingest import EvaluationSplit, ParseError, RawRecords, core_filter, parse, split

from conftest import make_dataset


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
    users, objects, tags = (m.ids.tolist() for m in (dataset.users, dataset.objects, dataset.tags))
    return (
        [(users[u], objects[o]) for u, o in edge_list(dataset.user_object)],
        [(users[u], tags[t]) for u, t in edge_list(dataset.user_tag)],
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
    users, objects, tags = (m.ids.tolist() for m in (recs.users, recs.objects, recs.tags))
    return (
        [(users[u], objects[o]) for u, o in recs.object_events.tolist()],
        [(users[u], tags[t]) for u, t in recs.tag_events.tolist()],
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


# The line reader that `parse` replaced, kept verbatim apart from its names
# (`_iter_rows` is `reference_rows`, `_is_number` and `_detect_delimiter` are
# copied beside it) and from one later rule: an empty user or object field is
# refused, as an empty tag always was. It strips every field of every line and
# checks a rating with two float() calls. `parse` must agree with it on every
# input without a quote in a comma-delimited stream, where `parse` refuses the
# line instead.
def reference_is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def reference_detect_delimiter(line: str) -> str | None:
    """Tab if the line has one, else MovieLens' "::", else comma; None if it
    has none of them."""
    return next((delim for delim in ("\t", "::", ",") if delim in line), None)


def reference_rows(stream: str, lines: Iterable[str], headers: dict[str, str]):
    """(line number, line, fields) of each non-blank line, split on the
    delimiter of the first line that holds one. A line 1 whose first field is
    not a number is recorded in headers instead."""
    delim: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        delim = delim or reference_detect_delimiter(line)
        # until a line holds a delimiter, each line is one field (it has no comma)
        fields = [f.strip() for f in line.split(delim or ",")]
        if lineno == 1 and not reference_is_number(fields[0]):
            headers[stream] = line
            continue
        yield lineno, line, fields


def reference_line_parse(
    object_stream: Iterable[str],
    tag_stream: Iterable[str],
    rating_threshold: float = 0,
) -> RawRecords:
    """Parse both event streams; rating events below the threshold are dropped.

    Ratings, when present, must lie in [0.5, 5]. Malformed lines are
    collected into ``records.errors`` with line numbers instead of raising.
    Tag strings are trimmed and lowercased. A NaN threshold raises ValueError.
    """
    if math.isnan(rating_threshold):
        raise ValueError("rating threshold must be a number, got nan")
    users: dict[str, int] = {}
    objects: dict[str, int] = {}
    tags: dict[str, int] = {}
    object_codes: list[int] = []  # user, object, user, object, ...
    tag_codes: list[int] = []  # user, tag, user, tag, ...
    errors: list[ParseError] = []
    headers: dict[str, str] = {}

    for lineno, line, fields in reference_rows("objects", object_stream, headers):
        if len(fields) < 2:
            errors.append(
                ParseError("objects", lineno, line, "expected at least user and object")
            )
            continue
        if not fields[0] or not fields[1]:
            reason = "empty user" if not fields[0] else "empty object"
            errors.append(ParseError("objects", lineno, line, reason))
            continue
        if len(fields) >= 3 and fields[2] != "":
            if not reference_is_number(fields[2]):
                errors.append(ParseError("objects", lineno, line, f"bad rating {fields[2]!r}"))
                continue
            rating = float(fields[2])
            if not 0.5 <= rating <= 5.0:
                errors.append(
                    ParseError("objects", lineno, line, f"rating {rating} outside [0.5, 5]")
                )
                continue
            if rating < rating_threshold:
                continue
        object_codes.append(users.setdefault(fields[0], len(users)))
        object_codes.append(objects.setdefault(fields[1], len(objects)))

    for lineno, line, fields in reference_rows("tags", tag_stream, headers):
        if len(fields) < 2:
            errors.append(ParseError("tags", lineno, line, "expected at least user and tag"))
            continue
        if not fields[0]:
            errors.append(ParseError("tags", lineno, line, "empty user"))
            continue
        # 2 columns: user, tag. 3+ columns: user, object, tag[, timestamp].
        tag = fields[1 if len(fields) == 2 else 2].lower()
        if not tag:
            errors.append(ParseError("tags", lineno, line, "empty tag"))
            continue
        tag_codes.append(users.setdefault(fields[0], len(users)))
        tag_codes.append(tags.setdefault(tag, len(tags)))

    return RawRecords(
        users=EntityIndexMap(tuple(users)),
        objects=EntityIndexMap(tuple(objects)),
        tags=EntityIndexMap(tuple(tags)),
        object_events=np.array(object_codes, dtype=np.int64).reshape(-1, 2),
        tag_events=np.array(tag_codes, dtype=np.int64).reshape(-1, 2),
        errors=tuple(errors),
        headers=headers,
    )


# Raw lines for the comparison with reference_line_parse: 1-5 fields joined by
# the stream's delimiter, fields that trimming, case folding or float() treat
# unusually, rating tokens that repeat within a stream, three line endings, and
# blank, whitespace-only and delimiter-free lines. A quote is drawn only into
# tab and "::" streams.
RATING_TOKENS = [" 4.5 ", "0.4", "9", "nan", "inf", "1_0", "5e0", "abc"]
RAW_FIELDS = ["", " 7 ", "\xa0x\u3000", "TAG", "\u0130", "\xdf", "1", "12", *RATING_TOKENS * 2]


def raw_stream(delim: str):
    fields = st.sampled_from(RAW_FIELDS + (['"q"', 'say "hi"'] if delim != "," else []))
    line = st.lists(fields, min_size=1, max_size=5).map(delim.join) | st.sampled_from(
        ["", " ", "\t", "\xa0 ", "12", "TAG"]
    )
    ending = st.sampled_from(["", "\n", "\r\n", "\r"])
    return st.lists(st.tuples(line, ending).map("".join), max_size=12)


RAW_STREAMS = st.sampled_from(["\t", "::", ","]).flatmap(raw_stream)


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
        assert dropped.users.ids.tolist() == dropped.objects.ids.tolist() == []

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
        assert recs.users.ids.tolist() == ["9"]

    def test_delimiter_from_first_line_that_holds_one(self):
        # a lone "5" holds no delimiter, so it decides nothing and is refused
        recs = parse(["5", "1\t2\t3", "2\t2\t4"], ["7", "7,42,funny"])
        assert decoded(recs) == ([("1", "2"), ("2", "2")], [("7", "funny")])
        assert [(e.stream, e.line_number) for e in recs.errors] == [("objects", 1), ("tags", 1)]
        # tab is preferred over "::" and comma on the line that decides
        recs = parse(["", "1\t2::x,y\t3", "2\t3\t4"], [])
        assert decoded(recs)[0] == [("1", "2::x,y"), ("2", "3")]

    def test_quoted_comma_fields_refused(self):
        # MovieLens tags.csv quotes a tag that holds a comma; splitting inside
        # the quotes would keep the tag '"funny'
        recs = parse(
            ["1,2,5", "3,2,4"],
            ['"userId","movieId","tag"', '1,2,"funny, witty",123', '3,2,"funny, witty",124'],
        )
        assert decoded(recs) == ([("1", "2"), ("3", "2")], [])
        assert [(e.stream, e.line_number, e.reason) for e in recs.errors] == [
            ("tags", 2, "quoted fields are not supported"),
            ("tags", 3, "quoted fields are not supported"),
        ]
        assert recs.headers == {"tags": '"userId","movieId","tag"'}
        # a tab-delimited line splits on tabs only, so a quote is part of its field
        recs = parse([], ['1\t2\t"funny, witty"'])
        assert decoded(recs)[1] == [("1", '"funny, witty"')]
        assert recs.errors == ()

    def test_nan_threshold_refused(self):
        with pytest.raises(ValueError, match="nan"):
            parse(["7\t42\t5"], [], rating_threshold=float("nan"))

    def test_rating_out_of_range_reported(self):
        for rating in ("9", "0.4"):
            recs = parse([f"7\t42\t{rating}"], [])
            assert len(recs.object_events) == 0
            assert len(recs.errors) == 1
            assert recs.errors[0].reason == f"rating {float(rating)} outside [0.5, 5]"

    def test_empty_ids_refused(self):
        # an empty user or object is refused like an empty tag, even on a line
        # whose rating is below the threshold
        recs = parse(
            ["1\t2\t3", "\t2\t3", "1\t \t3", "1\t\t1"],
            ["1\tfunny", " \tfunny", "\t2\tdark"],
            rating_threshold=2,
        )
        assert decoded(recs) == ([("1", "2")], [("1", "funny")])
        assert [(e.stream, e.line_number, e.reason) for e in recs.errors] == [
            ("objects", 2, "empty user"),
            ("objects", 3, "empty object"),
            ("objects", 4, "empty object"),
            ("tags", 2, "empty user"),
            ("tags", 3, "empty user"),
        ]

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
        assert tuple(recs.users.ids.tolist()) == first_seen(u for u, _ in uo + ut)
        assert tuple(recs.objects.ids.tolist()) == first_seen(o for _, o in uo)
        assert tuple(recs.tags.ids.tolist()) == first_seen(t for _, t in ut)
        assert len(recs.errors) == refused
        assert recs.headers == {"objects": object_lines[0], "tags": tag_lines[0]}

    @settings(max_examples=300, deadline=None)
    @given(RAW_STREAMS, RAW_STREAMS, st.sampled_from([0, 0.5, 3, 5]))
    def test_matches_line_reference(self, object_lines, tag_lines, threshold):
        got = parse(object_lines, tag_lines, rating_threshold=threshold)
        want = reference_line_parse(object_lines, tag_lines, rating_threshold=threshold)
        for name in ("users", "objects", "tags"):
            assert getattr(got, name).ids.tolist() == getattr(want, name).ids.tolist()
        assert np.array_equal(got.object_events, want.object_events)
        assert np.array_equal(got.tag_events, want.tag_events)
        assert got.errors == want.errors
        assert got.headers == want.headers


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
        assert ds.users.ids.tolist() == ["u1", "u2"]
        assert ds.objects.ids.tolist() == ["o1"]

    def test_first_seen_order(self):
        recs = records(
            [("u2", "o2"), ("u1", "o1"), ("u1", "o2"), ("u2", "o1")],
            [("u2", "t1"), ("u1", "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.ids.tolist() == ["u2", "u1"]
        assert ds.objects.ids.tolist() == ["o2", "o1"]

    def test_id_arrays_as_wide_as_their_ids(self):
        # the longer ids fall, so the kept maps are narrower than the parsed
        # ones, and hold the dtype np.array gives their ids (snapshot bytes)
        recs = records(
            [("u1", "o1"), ("u2", "o1"), ("user-long", "o1"), ("u1", "object-long")],
            [("u1", "t1"), ("u2", "t1"), ("u2", "tag-long")],
        )
        ds = core_filter(recs)
        for name in ("users", "objects", "tags"):
            kept, parsed = getattr(ds, name), getattr(recs, name)
            assert kept.ids.dtype == np.array(kept.ids.tolist(), dtype=str).dtype
            assert kept.ids.dtype.itemsize < parsed.ids.dtype.itemsize

    def test_user_order_counts_dropped_objects(self):
        # u2's first object event is of o9, which falls; u2 still precedes u1
        recs = records(
            [("u2", "o9"), ("u1", "o1"), ("u2", "o1")],
            [("u1", "t1"), ("u2", "t1")],
        )
        ds = core_filter(recs)
        assert ds.users.ids.tolist() == ["u2", "u1"]
        assert ds.objects.ids.tolist() == ["o1"]

    @settings(max_examples=150, deadline=None)
    @given(event_lists)
    def test_matches_brute_force_definition(self, events):
        uo = [(f"u{u}", f"o{o}") for u, o in events[0]]
        ut = [(f"u{u}", f"t{t}") for u, t in events[1]]
        users, objects, tags, ref_uo, ref_ut = reference_core(uo, ut)
        ds = core_filter(records_of(*events))
        assert tuple(ds.users.ids.tolist()) == users
        assert tuple(ds.objects.ids.tolist()) == objects
        assert tuple(ds.tags.ids.tolist()) == tags
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
            assert set(a.ids.tolist()) == set(b.ids.tolist())
        assert external_edges(again) == external_edges(ds)

    @settings(max_examples=60, deadline=None)
    @given(event_lists)
    def test_postconditions_and_idempotence(self, events):
        ds = core_filter(records_of(*events))
        assert (ds.user_object.right_degrees >= 2).all()
        assert (ds.user_tag.right_degrees >= 2).all()
        for u in range(len(ds.users)):
            assert ds.user_object.left_degrees[u] >= 1
            assert ds.user_tag.left_degrees[u] >= 1
        # idempotence up to index relabeling: compare by external ids
        again = core_filter(records_from_dataset(ds))
        assert set(again.users.ids.tolist()) == set(ds.users.ids.tolist())
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
        assert sp.test.edge_count == 0
        assert edge_list(sp.training.user_object) == edge_list(dataset.user_object)

    def test_partition_and_determinism(self, dataset):
        sp1 = split(dataset, 0.9, seed=11)
        sp2 = split(dataset, 0.9, seed=11)
        assert edge_list(sp1.test) == edge_list(sp2.test)
        assert edge_list(sp1.training.user_object) == edge_list(sp2.training.user_object)
        assert edge_list(sp1.test) == sorted(edge_list(sp1.test))
        train = pair_set(sp1.training.user_object.edge_array())
        test = pair_set(sp1.test.edge_array())
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
        assert sp.test.edge_count == 1
        assert sp.training.user_object.edge_count == 9

    def test_different_seed_differs(self, dataset):
        outcomes = {split(dataset, 0.8, seed=s).test.edge_array().tobytes() for s in range(10)}
        assert len(outcomes) > 1

    def test_user_tag_untouched(self, dataset):
        sp = split(dataset, 0.5, seed=2)
        assert edge_list(sp.training.user_tag) == edge_list(dataset.user_tag)

    def test_index_maps_preserved(self, dataset):
        sp = split(dataset, 0.5, seed=2)
        assert sp.training.users.ids.tolist() == dataset.users.ids.tolist()
        assert sp.training.objects.ids.tolist() == dataset.objects.ids.tolist()

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_bad_fraction(self, dataset, frac):
        with pytest.raises(ValueError):
            split(dataset, frac, seed=0)

    def test_np_matches_rounding_rule(self, dataset):
        e = dataset.user_object.edge_count
        for frac in (0.9, 0.5, 0.37):
            sp = split(dataset, frac, seed=1)
            assert sp.test.edge_count == e - round(frac * e)

    @pytest.mark.parametrize("frac", [1.0, 0.9, 0.5, 0.37, 0.01])
    def test_two_graphs_partition_the_edges(self, dataset, frac):
        graph = dataset.user_object
        sp = split(dataset, frac, seed=4)
        for part in (sp.training.user_object, sp.test):
            assert (part.left_count, part.right_count) == (graph.left_count, graph.right_count)
        train = pair_set(sp.training.user_object.edge_array())
        test = pair_set(sp.test.edge_array())
        assert train & test == set()
        assert train | test == pair_set(graph.edge_array())

    @pytest.mark.parametrize("shape", [(1, 3), (5, 3), (4, 2)])
    def test_test_graph_has_the_training_shape(self, shape):
        # precision divides by the test graph's row count: with the 1-row test
        # graph, u0's one hit at L = 1 would give 1.0 in place of 0.25
        training = make_dataset(
            [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2)], [(u, 0) for u in range(4)], 4, 3, 1
        )
        with pytest.raises(ValueError, match=re.escape(f"test graph has shape {shape}")):
            EvaluationSplit(training, build_graph([(0, 1)], *shape))
