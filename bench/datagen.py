"""Seeded power-law generator of raw tridiff event files.

The generator writes the two inputs `tridiff ingest` reads: an object-event
file (tab separated: user, object, rating, timestamp) and a tag-event file
(comma separated: user, object, tag, timestamp), each with a header line.

What survives the core filter is fixed by construction: every core object
and tag has at least two distinct core users, and every core user has at
least one core object and one core tag. Around that core the files carry a
tail the filter must strip, shaped so that the filter needs several passes:

* chains of tail users, each removed one pass after its predecessor;
* stray users with objects but no tags, and with tags but no objects;
* lonely objects and tags held by a single core user;
* duplicate events, upper-case tag spellings and a few malformed lines.

Degrees follow Pareto quantiles (users shape 1.5, objects and tags 1.2),
capped so that no entity holds more than a fixed share of the other side.
The seed only permutes which entity gets which weight and draws the events,
so every seed gives the same degree profile and nearly the same work.

Besides writing the files, `generate` returns the accepted events as integer
codes in file order; the reference implementation in `oracle.py` works from
those, never from the program's parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

OBJECT_HEADER = "userId\tmovieId\trating\ttimestamp"
TAG_HEADER = "userId,movieId,tag,timestamp"


@dataclass(frozen=True)
class Scale:
    users: int
    objects: int
    tags: int
    object_edges: int
    tag_edges: int
    chains: int  # tail user chains; the core filter needs chain_length + 1 passes
    chain_length: int
    stray_users: int  # per kind: objects without tags, tags without objects
    lonely: int  # objects (and tags) held by a single core user
    duplicate_share: float = 0.02
    upper_share: float = 0.05
    user_shape: float = 1.5
    item_shape: float = 1.2
    user_cap: float = 0.15  # max expected user degree, as a share of objects
    item_cap: float = 0.3  # max expected object/tag degree, as a share of users


# The paper's dataset size: 3710 users x 5724 objects x 5228 tags.
PAPER = Scale(
    users=3710, objects=5724, tags=5228, object_edges=88_000, tag_edges=54_000,
    chains=40, chain_length=5, stray_users=150, lonely=300,
)
TINY = Scale(
    users=60, objects=80, tags=70, object_edges=700, tag_edges=450,
    chains=3, chain_length=3, stray_users=4, lonely=6,
)


@dataclass
class RawData:
    """Generated files plus the accepted events as codes in file order."""

    objects_path: Path
    tags_path: Path
    user_ids: list[str]
    object_ids: list[str]
    tag_ids: list[str]  # normalised (lower-case) tag strings
    object_events: np.ndarray  # (k, 2) int: user code, object code
    tag_events: np.ndarray  # (k, 2) int: user code, tag code
    parse_errors: int

    @property
    def raw_users(self) -> int:
        """Distinct users over all accepted events."""
        return len(np.union1d(self.object_events[:, 0], self.tag_events[:, 0]))


def pareto_weights(n: int, shape: float, rng: np.random.Generator) -> np.ndarray:
    """Pareto quantile weights at the midpoints (i + 0.5) / n, in seeded order."""
    q = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - q) ** (-1.0 / shape))


def _capped_probabilities(weights: np.ndarray, total: int, cap: float) -> np.ndarray:
    """Normalise weights so that no expected degree (p * total) exceeds cap."""
    p = weights / weights.sum()
    for _ in range(50):
        over = p * total > cap
        if not over.any():
            break
        p = np.where(over, cap / total, p)
        p /= p.sum()
    return p


def _bipartite_edges(
    rng: np.random.Generator,
    p_left: np.ndarray,
    p_right: np.ndarray,
    target: int,
    min_right: int,
) -> np.ndarray:
    """Distinct (left, right) pairs drawn by weight until `target` are found,
    then patched so every left node has one edge and every right node
    `min_right` distinct left nodes."""
    n_left, n_right = len(p_left), len(p_right)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < target:
        batch = int(1.3 * (target - len(keys))) + 16
        left = rng.choice(n_left, size=batch, p=p_left)
        right = rng.choice(n_right, size=batch, p=p_right)
        merged = np.concatenate((keys, left.astype(np.int64) * n_right + right))
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:target]
    present = set(keys.tolist())
    extra: list[int] = []

    def add(u: int, x: int) -> bool:
        key = u * n_right + x
        if key in present:
            return False
        present.add(key)
        extra.append(key)
        return True

    left_deg = np.bincount(keys // n_right, minlength=n_left)
    for u in np.flatnonzero(left_deg == 0).tolist():
        while not add(u, int(rng.choice(n_right, p=p_right))):
            pass
    right_deg = np.bincount(
        np.concatenate((keys, np.array(extra, dtype=np.int64))) % n_right,
        minlength=n_right,
    )
    for x in np.flatnonzero(right_deg < min_right).tolist():
        need = min_right - int(right_deg[x])
        while need:
            need -= add(int(rng.integers(n_left)), x)
    keys = np.concatenate((keys, np.array(extra, dtype=np.int64)))
    return np.stack((keys // n_right, keys % n_right), axis=1)


def generate(seed: int, scale: Scale, directory: Path) -> RawData:
    """Write objects.tsv and tags.csv under `directory`; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    s = scale
    w_user = pareto_weights(s.users, s.user_shape, rng)
    p_user_obj = _capped_probabilities(w_user, s.object_edges, s.user_cap * s.objects)
    p_user_tag = _capped_probabilities(w_user, s.tag_edges, s.user_cap * s.tags)
    p_obj = _capped_probabilities(
        pareto_weights(s.objects, s.item_shape, rng), s.object_edges, s.item_cap * s.users
    )
    p_tag = _capped_probabilities(
        pareto_weights(s.tags, s.item_shape, rng), s.tag_edges, s.item_cap * s.users
    )
    core_uo = _bipartite_edges(rng, p_user_obj, p_obj, s.object_edges, 2)
    core_ut = _bipartite_edges(rng, p_user_tag, p_tag, s.tag_edges, 2)

    # Codes: core entities first, tail entities after them.
    n_users, n_objects, n_tags = s.users, s.objects, s.tags
    uo: list[tuple[int, int]] = [tuple(e) for e in core_uo.tolist()]
    ut: list[tuple[int, int]] = [tuple(e) for e in core_ut.tolist()]

    # Chains T0..T(K-1): T0 holds a lonely object and link tag 1; link i joins
    # T(i-1) and T(i), alternating tag (odd i) and object (even i); the last
    # user also holds a core entity, so it falls only when its link falls.
    for _ in range(s.chains):
        chain_users = list(range(n_users, n_users + s.chain_length))
        n_users += s.chain_length
        uo.append((chain_users[0], n_objects))
        n_objects += 1
        for i in range(1, s.chain_length):
            a, b = chain_users[i - 1], chain_users[i]
            if i % 2:
                ut += [(a, n_tags), (b, n_tags)]
                n_tags += 1
            else:
                uo += [(a, n_objects), (b, n_objects)]
                n_objects += 1
        last = chain_users[-1]
        if (s.chain_length - 1) % 2:  # last link was a tag: add a core object
            uo.append((last, int(rng.integers(s.objects))))
        else:
            ut.append((last, int(rng.integers(s.tags))))
    for _ in range(s.stray_users):
        uo.append((n_users, int(rng.integers(s.objects))))
        ut.append((n_users + 1, int(rng.integers(s.tags))))
        n_users += 2
    for _ in range(s.lonely):
        uo.append((int(rng.integers(s.users)), n_objects))
        ut.append((int(rng.integers(s.users)), n_tags))
        n_objects += 1
        n_tags += 1
    n_dup = int(s.duplicate_share * len(core_uo))
    uo += [tuple(e) for e in core_uo[rng.choice(len(core_uo), n_dup)].tolist()]

    object_events = np.array(uo, dtype=np.int64)[rng.permutation(len(uo))]
    tag_events = np.array(ut, dtype=np.int64)[rng.permutation(len(ut))]

    user_ids = [str(i) for i in (rng.permutation(n_users) + 1).tolist()]
    object_ids = [str(i) for i in (rng.permutation(n_objects) + 100_000).tolist()]
    tag_ids = [f"tag{i}" for i in rng.permutation(n_tags).tolist()]

    ratings = rng.integers(1, 6, size=len(object_events))
    stamps = rng.integers(1_100_000_000, 1_300_000_000, size=len(object_events))
    obj_lines = [
        f"{user_ids[u]}\t{object_ids[o]}\t{r}\t{t}"
        for (u, o), r, t in zip(object_events.tolist(), ratings.tolist(), stamps.tolist())
    ]
    upper = rng.random(len(tag_events)) < s.upper_share
    tag_objects = rng.integers(s.objects, size=len(tag_events))
    tag_stamps = rng.integers(1_100_000_000, 1_300_000_000, size=len(tag_events))
    tag_lines = [
        f"{user_ids[u]},{object_ids[o]},{tag_ids[x].upper() if up else tag_ids[x]},{t}"
        for (u, x), up, o, t in zip(
            tag_events.tolist(), upper.tolist(), tag_objects.tolist(), tag_stamps.tolist()
        )
    ]

    # Malformed lines: parsed as errors, never as events.
    u0, o0 = user_ids[0], object_ids[0]
    bad_objects = [u0, f"{u0}\t{o0}\tgood\t1", f"{u0}\t{o0}\t9\t1"]
    bad_tags = [u0, f"{u0},{o0}, ,1"]
    for lines, bad in ((obj_lines, bad_objects), (tag_lines, bad_tags)):
        for line in bad:
            lines.insert(int(rng.integers(1, len(lines))), line)
    obj_lines.insert(int(rng.integers(1, len(obj_lines))), "")

    directory.mkdir(parents=True, exist_ok=True)
    objects_path = directory / "objects.tsv"
    tags_path = directory / "tags.csv"
    objects_path.write_text("\n".join([OBJECT_HEADER] + obj_lines) + "\n", encoding="utf-8")
    tags_path.write_text("\n".join([TAG_HEADER] + tag_lines) + "\n", encoding="utf-8")
    return RawData(
        objects_path=objects_path,
        tags_path=tags_path,
        user_ids=user_ids,
        object_ids=object_ids,
        tag_ids=tag_ids,
        object_events=object_events,
        tag_events=tag_events,
        parse_errors=len(bad_objects) + len(bad_tags),
    )
