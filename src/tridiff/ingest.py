"""Parsing of interaction/tagging logs, core filtering, and train/test splits.

The raw logs are plain delimited text (tab, "::" or comma, auto-detected
from the first line). Core filtering keeps only objects and tags with at
least two distinct users, and users with at least one surviving object AND
one surviving tag, iterating to a fixed point. Splitting partitions user-object
edges only; all user-tag edges stay in training.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (
    BipartiteGraph,
    EntityIndexMap,
    TripartiteDataset,
    build_graph,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParseError:
    """One unparseable input line."""

    stream: str  # "objects" or "tags"
    line_number: int
    line: str
    reason: str


@dataclass
class RawRecords:
    """Parsed events before filtering. Ratings, when present, lie in [1, 5]."""

    object_events: list[tuple[str, str, float | None]] = field(default_factory=list)
    tag_events: list[tuple[str, str | None, str]] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


@dataclass(frozen=True)
class EvaluationSplit:
    """Training dataset plus held-out user-object test edges."""

    training: TripartiteDataset
    test_edges: frozenset[tuple[int, int]]
    seed: int

    @property
    def test_count(self) -> int:
        return len(self.test_edges)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _detect_delimiter(first_line: str) -> str:
    """Tab if the line has one, else MovieLens' "::" if it has one, else comma."""
    for delim in ("\t", "::"):
        if delim in first_line:
            return delim
    return ","


def _iter_rows(lines: Iterable[str]):
    delim: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if delim is None:
            delim = _detect_delimiter(line)
        fields = [f.strip() for f in line.split(delim)]
        if lineno == 1 and fields and not _is_number(fields[0]):
            continue  # header
        yield lineno, line, fields


def parse(
    object_stream: Iterable[str],
    tag_stream: Iterable[str],
    rating_threshold: float = 0,
) -> RawRecords:
    """Parse both event streams; rating events below the threshold are dropped.

    Malformed lines are collected into ``records.errors`` with line numbers
    instead of raising. Tag strings are trimmed and lowercased.
    """
    records = RawRecords()

    for lineno, line, fields in _iter_rows(object_stream):
        if len(fields) < 2:
            records.errors.append(
                ParseError("objects", lineno, line, "expected at least user and object")
            )
            continue
        user, obj = fields[0], fields[1]
        rating: float | None = None
        if len(fields) >= 3 and fields[2] != "":
            if not _is_number(fields[2]):
                records.errors.append(
                    ParseError("objects", lineno, line, f"bad rating {fields[2]!r}")
                )
                continue
            rating = float(fields[2])
            if not 1.0 <= rating <= 5.0:
                records.errors.append(
                    ParseError("objects", lineno, line, f"rating {rating} outside [1, 5]")
                )
                continue
        if rating is not None and rating < rating_threshold:
            continue
        records.object_events.append((user, obj, rating))

    for lineno, line, fields in _iter_rows(tag_stream):
        if len(fields) < 2:
            records.errors.append(
                ParseError("tags", lineno, line, "expected at least user and tag")
            )
            continue
        user = fields[0]
        # 2 columns: user, tag. 3+ columns: user, object, tag[, timestamp].
        if len(fields) == 2:
            obj, tag = None, fields[1]
        else:
            obj, tag = fields[1], fields[2]
        tag = tag.strip().lower()
        if not tag:
            records.errors.append(ParseError("tags", lineno, line, "empty tag"))
            continue
        records.tag_events.append((user, obj, tag))

    return records


def _coded(ids: list[str]) -> tuple[EntityIndexMap, np.ndarray]:
    """Index map of ids in first-seen order, and the index of each id."""
    index = EntityIndexMap.from_ids(ids)
    return index, np.fromiter(map(index.index_of.__getitem__, ids), np.int64, len(ids))


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
    n_obj_events = len(records.object_events)
    users, user_codes = _coded(
        [u for u, _o, _r in records.object_events] + [u for u, _o, _t in records.tag_events]
    )
    obj_users, tag_users = user_codes[:n_obj_events], user_codes[n_obj_events:]
    objects, obj_codes = _coded([o for _u, o, _r in records.object_events])
    tags, tag_codes = _coded([t for _u, _o, t in records.tag_events])
    A = build_graph(np.column_stack((obj_users, obj_codes)), len(users), len(objects)).matrix
    T = build_graph(np.column_stack((tag_users, tag_codes)), len(users), len(tags)).matrix

    live = np.ones(len(users), dtype=bool)
    while True:
        live_obj = A.T @ live >= 2
        live_tag = T.T @ live >= 2
        kept = live & (A @ live_obj > 0) & (T @ live_tag > 0)
        if np.array_equal(kept, live):
            break
        live = kept

    obj_kept = live[obj_users] & live_obj[obj_codes]
    tag_kept = live[tag_users] & live_tag[tag_codes]
    user_map, new_user = _relabel(users, obj_users[live[obj_users]])
    object_map, new_obj = _relabel(objects, obj_codes[obj_kept])
    tag_map, new_tag = _relabel(tags, tag_codes[tag_kept])
    uo_edges = np.column_stack((new_user[obj_users[obj_kept]], new_obj[obj_codes[obj_kept]]))
    ut_edges = np.column_stack((new_user[tag_users[tag_kept]], new_tag[tag_codes[tag_kept]]))

    dataset = TripartiteDataset(
        users=user_map,
        objects=object_map,
        tags=tag_map,
        user_object=build_graph(uo_edges, len(user_map), len(object_map)),
        user_tag=build_graph(ut_edges, len(user_map), len(tag_map)),
    )
    if dataset.is_empty:
        logger.warning("core filtering removed every record; dataset is empty")
    return dataset


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
    test_edges = frozenset(map(tuple, edges[perm[n_train:]].tolist()))

    training = TripartiteDataset(
        users=dataset.users,
        objects=dataset.objects,
        tags=dataset.tags,
        user_object=build_graph(
            train_edges, dataset.user_object.left_count, dataset.user_object.right_count
        ),
        user_tag=dataset.user_tag,
    )
    return EvaluationSplit(training=training, test_edges=test_edges, seed=seed)
