"""Parsing of interaction/tagging logs, core filtering, and train/test splits.

The raw logs are plain delimited text (tab, "::" or comma, auto-detected
from the first line that holds one). Core filtering keeps only objects and
tags with at least two distinct users, and users with at least one surviving
object AND one surviving tag, iterating to a fixed point. Splitting
partitions user-object edges only, into a training graph and a test graph
over the same users and objects; all user-tag edges stay in training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import BipartiteGraph, EntityIndexMap, TripartiteDataset, build_graph


@dataclass(frozen=True)
class ParseError:
    """One unparseable input line."""

    stream: str  # "objects" or "tags"
    line_number: int
    line: str
    reason: str


@dataclass(frozen=True)
class RawRecords:
    """Accepted events in file order, as (E, 2) int64 arrays of (user, object)
    and (user, tag) indices; ratings and tag lines' objects are not kept.
    Ids are indexed when first seen: users over the object events, then the
    tag events. headers maps "objects" or "tags" to a line 1 skipped as a header."""

    users: EntityIndexMap
    objects: EntityIndexMap
    tags: EntityIndexMap
    object_events: np.ndarray
    tag_events: np.ndarray
    errors: tuple[ParseError, ...]
    headers: dict[str, str]


@dataclass(frozen=True)
class EvaluationSplit:
    """Training dataset plus the held-out user-object edges, a graph over
    the training set's users and objects; raises ValueError unless the test
    graph has the training user-object graph's shape."""

    training: TripartiteDataset
    test: BipartiteGraph

    def __post_init__(self) -> None:
        if self.test.shape != self.training.user_object.shape:
            raise ValueError(
                f"test graph has shape {self.test.shape}, not the training user-object "
                f"graph's {self.training.user_object.shape}"
            )


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _detect_delimiter(line: str) -> str | None:
    """Tab if the line has one, else MovieLens' "::", else comma; None if it
    has none of them."""
    return next((delim for delim in ("\t", "::", ",") if delim in line), None)


def _rating_verdict(field: str, threshold: float) -> str | None:
    """What a rating field does to its line: None keeps it, "" drops it below
    the threshold, and any other string is the reason the line is refused."""
    field = field.strip()
    if not field:
        return None
    try:
        rating = float(field)
    except ValueError:
        return f"bad rating {field!r}"
    if not 0.5 <= rating <= 5.0:
        return f"rating {rating} outside [0.5, 5]"
    return None if rating >= threshold else ""


def parse(
    object_stream: Iterable[str],
    tag_stream: Iterable[str],
    rating_threshold: float = 0,
) -> RawRecords:
    """Parse both event streams; rating events below the threshold are dropped.

    Each stream splits on the delimiter of its first line that holds one, and
    a line 1 whose first field is not a number is a header. Ratings, when
    present, must lie in [0.5, 5]; comma-delimited fields may not be quoted.
    Malformed lines, an empty user, object or tag field among them, are
    collected into ``records.errors`` with line numbers instead of raising.
    Fields are trimmed and tags lowercased. A NaN threshold raises ValueError,
    and an id that ends in a NUL character IndexMapError.
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
    verdicts: dict[str, str | None] = {}  # rating field -> _rating_verdict

    for stream, lines, index, out in (
        ("objects", object_stream, objects, object_codes),
        ("tags", tag_stream, tags, tag_codes),
    ):
        delim: str | None = None
        for lineno, raw in enumerate(lines, start=1):
            if raw.isspace() or not raw:
                continue
            delim = delim or _detect_delimiter(raw)
            # until a line holds a delimiter, each line is one field (it has no comma);
            # the line ending, if any, stays on the last field, which is trimmed when used
            fields = raw.split(delim or ",")
            user = fields[0].strip()
            if lineno == 1 and not _is_number(user):
                headers[stream] = raw.rstrip("\n").rstrip("\r")
                continue
            if delim == "," and '"' in raw:
                reason = "quoted fields are not supported"
            elif len(fields) < 2:
                reason = f"expected at least user and {stream[:-1]}"
            elif not user:
                reason = "empty user"
            elif index is tags:
                # 2 columns: user, tag. 3+ columns: user, object, tag[, timestamp].
                key = fields[1 if len(fields) == 2 else 2].strip().lower()
                reason = None if key else "empty tag"
            else:  # user, object[, rating[, timestamp]]
                key = fields[1].strip()
                rating = fields[2] if len(fields) > 2 else ""
                if rating not in verdicts:
                    verdicts[rating] = _rating_verdict(rating, rating_threshold)
                reason = verdicts[rating] if key else "empty object"
            if reason is not None:
                if reason:
                    line = raw.rstrip("\n").rstrip("\r")
                    errors.append(ParseError(stream, lineno, line, reason))
                continue
            out.append(users.setdefault(user, len(users)))
            out.append(index.setdefault(key, len(index)))

    return RawRecords(
        users=EntityIndexMap(users),
        objects=EntityIndexMap(objects),
        tags=EntityIndexMap(tags),
        object_events=np.array(object_codes, dtype=np.int64).reshape(-1, 2),
        tag_events=np.array(tag_codes, dtype=np.int64).reshape(-1, 2),
        errors=tuple(errors),
        headers=headers,
    )


def _relabel(index: EntityIndexMap, codes: np.ndarray) -> tuple[EntityIndexMap, np.ndarray]:
    """Index map of the entities in codes, in order of first occurrence, and
    the lookup from old to new index (meaningful for those entities only)."""
    first = np.full(len(index), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    is_first = np.zeros(len(codes) + 1, dtype=bool)  # the last slot takes absent entities
    is_first[first] = True
    order = codes[is_first[:-1]]
    new_index = np.zeros(len(index), dtype=np.int64)
    new_index[order] = np.arange(len(order))
    return EntityIndexMap(index.ids[order]), new_index


def core_filter(records: RawRecords) -> TripartiteDataset:
    """Filter to the dense core and build the tripartite dataset.

    Iterates to a fixed point: objects and tags keep at least two distinct
    live users, and users stay live while they hold at least one live object
    and one live tag. Indices follow first-seen event order: users by their
    first object event (even one whose object is dropped), objects and tags
    by their first event that survives.
    """
    obj_users, obj_codes = records.object_events.T
    tag_users, tag_codes = records.tag_events.T
    m, n, r = len(records.users), len(records.objects), len(records.tags)
    # the distinct edges, as intp: numpy gathers with int32 indices ~1.5x slower
    ou, oc = build_graph(records.object_events, m, n).edge_array().T.astype(np.intp)
    tu, tc = build_graph(records.tag_events, m, r).edge_array().T.astype(np.intp)

    live = np.ones(m, dtype=bool)
    while True:
        live_obj = np.bincount(oc[live[ou]], minlength=n) >= 2
        live_tag = np.bincount(tc[live[tu]], minlength=r) >= 2
        kept = live & (np.bincount(ou[live_obj[oc]], minlength=m) > 0)
        kept &= np.bincount(tu[live_tag[tc]], minlength=m) > 0
        if np.array_equal(kept, live):
            break
        live = kept

    obj_kept = live[obj_users] & live_obj[obj_codes]
    tag_kept = live[tag_users] & live_tag[tag_codes]
    user_map, new_user = _relabel(records.users, obj_users[live[obj_users]])
    object_map, new_obj = _relabel(records.objects, obj_codes[obj_kept])
    tag_map, new_tag = _relabel(records.tags, tag_codes[tag_kept])
    uo_edges = np.column_stack((new_user[obj_users[obj_kept]], new_obj[obj_codes[obj_kept]]))
    ut_edges = np.column_stack((new_user[tag_users[tag_kept]], new_tag[tag_codes[tag_kept]]))

    return TripartiteDataset(
        users=user_map,
        objects=object_map,
        tags=tag_map,
        user_object=build_graph(uo_edges, len(user_map), len(object_map)),
        user_tag=build_graph(ut_edges, len(user_map), len(tag_map)),
    )


def split(dataset: TripartiteDataset, train_fraction: float, seed: int) -> EvaluationSplit:
    """Seeded random partition of user-object edges into train and test.

    round(train_fraction * edge_count) edges go to training; the rest are
    held out. Both are graphs over the dataset's users and objects, so
    users/objects may have zero training degree. User-tag edges all stay in
    training.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1], got {train_fraction}")
    if dataset.is_empty:
        raise ValueError("cannot split an empty dataset")

    edges = dataset.user_object.edge_array()
    n_train = round(train_fraction * len(edges))
    perm = np.random.default_rng(seed).permutation(len(edges))
    m, n = len(dataset.users), len(dataset.objects)
    train = build_graph(edges[perm[:n_train]], m, n)
    test = build_graph(edges[perm[n_train:]], m, n)
    return EvaluationSplit(training=replace(dataset, user_object=train), test=test)
