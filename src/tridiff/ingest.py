"""Parsing of interaction/tagging logs, core filtering, and train/test splits.

The raw logs are plain delimited text (tab, "::" or comma, auto-detected
from the first line that holds one). Core filtering keeps only objects and
tags with at least two distinct users, and users with at least one surviving
object AND one surviving tag, iterating to a fixed point. Splitting
partitions user-object edges only; all user-tag edges stay in training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import EntityIndexMap, TripartiteDataset, build_graph


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
    """Training dataset plus the held-out user-object edges, an (E, 2) array."""

    training: TripartiteDataset
    test_edges: np.ndarray


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


def _iter_rows(stream: str, lines: Iterable[str], headers: dict[str, str]):
    """(line number, line, fields) of each non-blank line, split on the
    delimiter of the first line that holds one. A line 1 whose first field is
    not a number is recorded in headers instead."""
    delim: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        delim = delim or _detect_delimiter(line)
        # until a line holds a delimiter, each line is one field (it has no comma)
        fields = [f.strip() for f in line.split(delim or ",")]
        if lineno == 1 and not _is_number(fields[0]):
            headers[stream] = line
            continue
        yield lineno, line, fields


def parse(
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

    for lineno, line, fields in _iter_rows("objects", object_stream, headers):
        if len(fields) < 2:
            errors.append(
                ParseError("objects", lineno, line, "expected at least user and object")
            )
            continue
        if len(fields) >= 3 and fields[2] != "":
            if not _is_number(fields[2]):
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

    for lineno, line, fields in _iter_rows("tags", tag_stream, headers):
        if len(fields) < 2:
            errors.append(ParseError("tags", lineno, line, "expected at least user and tag"))
            continue
        # 2 columns: user, tag. 3+ columns: user, object, tag[, timestamp].
        tag = fields[1 if len(fields) == 2 else 2].lower()
        if not tag:
            errors.append(ParseError("tags", lineno, line, "empty tag"))
            continue
        tag_codes.append(users.setdefault(fields[0], len(users)))
        tag_codes.append(tags.setdefault(tag, len(tags)))

    return RawRecords(
        users=EntityIndexMap(tuple(users), users),
        objects=EntityIndexMap(tuple(objects), objects),
        tags=EntityIndexMap(tuple(tags), tags),
        object_events=np.array(object_codes, dtype=np.int64).reshape(-1, 2),
        tag_events=np.array(tag_codes, dtype=np.int64).reshape(-1, 2),
        errors=tuple(errors),
        headers=headers,
    )


def _relabel(index: EntityIndexMap, codes: np.ndarray) -> tuple[EntityIndexMap, np.ndarray]:
    """Index map of the entities in codes, in order of first occurrence, and
    the lookup from old to new index (meaningful for those entities only)."""
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)]
    new_index = np.zeros(len(index), dtype=np.int64)
    new_index[order] = np.arange(len(order))
    return EntityIndexMap.from_ids(index.external_ids[i] for i in order.tolist()), new_index


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
    A = build_graph(records.object_events, len(records.users), len(records.objects)).matrix
    T = build_graph(records.tag_events, len(records.users), len(records.tags)).matrix

    live = np.ones(len(records.users), dtype=bool)
    while True:
        live_obj = A.T @ live >= 2
        live_tag = T.T @ live >= 2
        kept = live & (A @ live_obj > 0) & (T @ live_tag > 0)
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
    held out. User-tag edges all stay in training. Index maps are kept in
    full, so users/objects may have zero training degree.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1], got {train_fraction}")
    if dataset.is_empty:
        raise ValueError("cannot split an empty dataset")

    edges = dataset.user_object.edge_array()
    n_train = round(train_fraction * len(edges))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(edges))
    train_edges = edges[perm[:n_train]]
    test_edges = edges[np.sort(perm[n_train:])]

    training = TripartiteDataset(
        users=dataset.users,
        objects=dataset.objects,
        tags=dataset.tags,
        user_object=build_graph(
            train_edges, dataset.user_object.left_count, dataset.user_object.right_count
        ),
        user_tag=dataset.user_tag,
    )
    return EvaluationSplit(training=training, test_edges=test_edges)
