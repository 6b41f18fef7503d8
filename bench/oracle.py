"""Reference implementation of the tridiff protocol, for checking outputs.

It follows the protocol as the README states it but shares no code with the
program: the core filter runs on integer codes with numpy masks, and
similarities, scores and ranks are computed for blocks of users with sparse
matrix products instead of one user at a time.

Float results are exact where the protocol fixes the arithmetic: for each
user and object the sums run in ascending index order, as the program's
kernels sum them today. Checks against these results still use the
tolerances in TOLERANCE, so that a change which legitimately reorders the
sums (and so moves a tie by one rounding step) is not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from datagen import RawData

KINDS = ("diffusion", "cosine", "jaccard")
BLOCK_USERS = 256

# Sweep cells: |program - reference| <= abs + rel * |reference|.
TOLERANCE = {
    "rank_score": {"abs": 1e-4, "rel": 0.0},
    "recall": {"abs": 1e-4, "rel": 1e-2},
    "precision": {"abs": 1e-5, "rel": 1e-2},
    # recommend scores: relative, also the width of an equal-score block
    "score_rel": 1e-9,
}


def _adjacency(edges: np.ndarray, rows: int, cols: int) -> sparse.csr_matrix:
    mat = sparse.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(rows, cols)
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """Distinct codes in order of first appearance."""
    uniq, first = np.unique(codes, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


@dataclass
class Filtered:
    """The dataset after the core filter, indexed in first-seen event order."""

    users: list[str]
    objects: list[str]
    tags: list[str]
    user_object: np.ndarray  # (E, 2) index pairs, sorted lexicographically
    user_tag: np.ndarray
    passes: int  # core-filter passes, the last one finding nothing to remove

    def summary(self) -> dict[str, int]:
        return {
            "users": len(self.users),
            "objects": len(self.objects),
            "tags": len(self.tags),
            "user_object_edges": len(self.user_object),
            "user_tag_edges": len(self.user_tag),
        }

    def graphs(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        m = len(self.users)
        return (
            _adjacency(self.user_object, m, len(self.objects)),
            _adjacency(self.user_tag, m, len(self.tags)),
        )


def core_filter(raw: RawData) -> Filtered:
    """Objects and tags need two users, users need an object and a tag."""
    n_u, n_o, n_t = len(raw.user_ids), len(raw.object_ids), len(raw.tag_ids)
    ou, oo = raw.object_events[:, 0], raw.object_events[:, 1]
    tu, tt = raw.tag_events[:, 0], raw.tag_events[:, 1]
    uo_keys = np.unique(ou * n_o + oo)
    ut_keys = np.unique(tu * n_t + tt)
    eu, eo = np.divmod(uo_keys, n_o)
    fu, ft = np.divmod(ut_keys, n_t)

    def users_with(idx: np.ndarray) -> np.ndarray:
        mask = np.zeros(n_u, dtype=bool)
        mask[idx] = True
        return mask

    alive = users_with(eu) & users_with(fu)
    live_uo, live_ut = alive[eu], alive[fu]
    passes = 0
    while True:
        passes += 1
        new_uo = live_uo & (np.bincount(eo[live_uo], minlength=n_o)[eo] >= 2)
        new_ut = live_ut & (np.bincount(ft[live_ut], minlength=n_t)[ft] >= 2)
        keep = users_with(eu[new_uo]) & users_with(fu[new_ut])
        new_uo &= keep[eu]
        new_ut &= keep[fu]
        changed = (
            (keep != alive).any() or (new_uo != live_uo).any() or (new_ut != live_ut).any()
        )
        alive, live_uo, live_ut = keep, new_uo, new_ut
        if not changed:
            break

    user_order = _first_seen(ou[alive[ou]])
    object_order = _first_seen(oo[np.isin(ou * n_o + oo, uo_keys[live_uo])])
    tag_order = _first_seen(tt[np.isin(tu * n_t + tt, ut_keys[live_ut])])

    def index(order: np.ndarray, size: int) -> np.ndarray:
        idx = np.full(size, -1, dtype=np.int64)
        idx[order] = np.arange(len(order))
        return idx

    u_idx, o_idx, t_idx = index(user_order, n_u), index(object_order, n_o), index(tag_order, n_t)

    def sorted_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        pairs = np.stack((left, right), axis=1)
        return pairs[np.lexsort((right, left))]

    return Filtered(
        users=[raw.user_ids[c] for c in user_order.tolist()],
        objects=[raw.object_ids[c] for c in object_order.tolist()],
        tags=[raw.tag_ids[c] for c in tag_order.tolist()],
        user_object=sorted_pairs(u_idx[eu[live_uo]], o_idx[eo[live_uo]]),
        user_tag=sorted_pairs(u_idx[fu[live_ut]], t_idx[ft[live_ut]]),
        passes=passes,
    )


def similarity_block(
    adj: sparse.csr_matrix, adj_t: sparse.csr_matrix, targets: np.ndarray, kind: str
) -> np.ndarray:
    """Dense similarities of every user toward each target, one row per target."""
    rows = adj[targets]
    kv = np.diff(rows.indptr).astype(np.int64)
    if kind == "diffusion":
        right_deg = np.diff(adj_t.indptr).astype(np.int64)
        weights = rows.copy()
        weights.data = 1.0 / (np.repeat(kv, kv) * right_deg[rows.indices])
        return (weights @ adj_t).toarray()
    overlap = (rows @ adj_t).toarray()
    deg = np.diff(adj.indptr).astype(np.int64)
    if kind == "cosine":
        denom = np.sqrt(deg[None, :] * kv[:, None].astype(np.float64))
    elif kind == "jaccard":
        denom = (deg[None, :] + kv[:, None]) - overlap
    else:
        raise ValueError(f"unknown similarity kind: {kind!r}")
    out = np.zeros_like(overlap)
    np.divide(overlap, denom, out=out, where=overlap > 0)
    return out


def channel_scores(
    channels: list[tuple[sparse.csr_matrix, sparse.csr_matrix]],
    targets: np.ndarray,
    kind: str,
) -> list[np.ndarray]:
    """Object scores from each channel for each target, self excluded.

    `channels` holds the user-object and user-tag adjacency, each with its
    transpose; the user-object transpose scatters similarities to objects."""
    scatter = channels[0][1]
    out = []
    for adj, adj_t in channels:
        sims = similarity_block(adj, adj_t, targets, kind)
        sims[np.arange(len(targets)), targets] = 0.0
        out.append((scatter @ np.ascontiguousarray(sims.T)).T)
    return out


def _fmt(x: float) -> str:
    return format(x, ".17g")


def sweep_rows(
    data: Filtered,
    kind: str,
    lambdas: list[float],
    runs: int,
    seed: int,
    train_fraction: float,
    lengths: tuple[int, ...],
) -> tuple[dict[tuple[float, int], list[str]], dict[int, int]]:
    """Reference sweep cells as CSV fields, keyed by (lambda, run); and the
    number of test pairs of each run."""
    m, n = len(data.users), len(data.objects)
    _, tag_adj = data.graphs()
    tag_channel = (tag_adj, tag_adj.T.tocsr())
    edges = data.user_object
    n_train = round(train_fraction * len(edges))
    cells: dict[tuple[float, int], list[str]] = {}
    test_pairs: dict[int, int] = {}
    cols = np.arange(n)
    for run in range(runs):
        perm = np.random.default_rng(seed + run).permutation(len(edges))
        train = _adjacency(edges[perm[:n_train]], m, n)
        channels = [(train, train.T.tocsr()), tag_channel]
        test = edges[perm[n_train:]]
        test = test[np.lexsort((test[:, 1], test[:, 0]))]
        n_p = len(test)
        test_pairs[run] = n_p
        train_deg = np.diff(train.indptr)
        rank_sums = {lam: 0.0 for lam in lambdas}
        hits = {lam: {L: 0 for L in lengths} for lam in lambdas}
        test_users = np.unique(test[:, 0])
        for start in range(0, len(test_users), BLOCK_USERS):
            block = test_users[start : start + BLOCK_USERS]
            p_obj, p_tag = channel_scores(channels, block, kind)
            local = np.full(m, -1)
            local[block] = np.arange(len(block))
            pairs = test[(test[:, 0] >= block[0]) & (test[:, 0] <= block[-1])]
            prow, palpha = local[pairs[:, 0]], pairs[:, 1]
            sub = train[block].tocoo()
            n_unc = n - train_deg[pairs[:, 0]]
            bounds = np.flatnonzero(np.diff(pairs[:, 0])) + 1
            for lam in lambdas:
                p = lam * p_obj + (1.0 - lam) * p_tag
                pa = p[prow, palpha]
                masked = p.copy()
                masked[sub.row, sub.col] = np.nan
                x = masked[prow]
                greater = np.count_nonzero(x > pa[:, None], axis=1)
                equal = np.count_nonzero(x == pa[:, None], axis=1)
                ranks = (greater + (equal + 1) / 2.0) / n_unc
                total = rank_sums[lam]
                for user_ranks in np.split(ranks, bounds):
                    total += sum(user_ranks.tolist())
                rank_sums[lam] = total
                # list position under the ascending-index tie-break; only
                # pairs that can reach the longest list need the tie count
                near = np.flatnonzero(greater < max(lengths))
                xn = x[near, :]
                before = np.count_nonzero(
                    (xn == pa[near, None]) & (cols[None, :] < palpha[near, None]), axis=1
                )
                position = np.full(len(pa), n + 1)
                position[near] = greater[near] + before + 1
                for L in lengths:
                    hits[lam][L] += int(np.count_nonzero((pa > 0.0) & (position <= L)))
        for lam in lambdas:
            row = [kind, _fmt(lam), str(run), _fmt(rank_sums[lam] / n_p)]
            row += [_fmt(hits[lam][L] / n_p) for L in lengths]
            row += [_fmt(hits[lam][L] / (m * L)) for L in lengths]
            cells[(lam, run)] = row
    return cells, test_pairs


def recommend_scores(
    graphs: list[tuple[sparse.csr_matrix, sparse.csr_matrix]],
    user: int,
    kind: str,
    lam: float,
) -> np.ndarray:
    """Dense object scores for one user; collected objects score 0.

    `graphs` holds the user-object and user-tag adjacency, each with its
    transpose."""
    (uo, uo_t), (ut, ut_t) = graphs
    target = np.array([user])
    s_obj = similarity_block(uo, uo_t, target, kind)[0]
    s_tag = similarity_block(ut, ut_t, target, kind)[0]
    fused = lam * s_obj + (1.0 - lam) * s_tag
    fused[user] = 0.0
    scores = uo_t @ fused
    scores[uo.indices[uo.indptr[user] : uo.indptr[user + 1]]] = 0.0
    return scores


def check_top_l(
    printed: list[tuple[int, float]], scores: np.ndarray, L: int
) -> str | None:
    """None if the printed (object index, score) list is a valid top-L list
    of `scores`; order may differ only inside equal-score blocks."""
    rel = TOLERANCE["score_rel"]
    positive = np.flatnonzero(scores > 0.0)
    expect = min(L, len(positive))
    if len(printed) != expect:
        return f"{len(printed)} entries, expected {expect}"
    if not printed:
        return None
    for obj, score in printed:
        ref = scores[obj]
        if ref <= 0.0 or abs(score - ref) > rel * ref:
            return f"object {obj}: score {score!r}, reference {ref!r}"
    ref_scores = [scores[obj] for obj, _ in printed]
    for a, b in zip(ref_scores, ref_scores[1:]):
        if b > a * (1.0 + rel):
            return "entries out of score order"
    kth = np.sort(scores[positive])[::-1][expect - 1]
    if min(ref_scores) < kth * (1.0 - rel):
        return "an entry below the L-th best score"
    must = np.flatnonzero(scores > kth * (1.0 + rel))
    missing = set(must.tolist()) - {obj for obj, _ in printed}
    if missing:
        return f"{len(missing)} objects above the L-th best score missing"
    return None


def within_tolerance(metric: str, value: float, reference: float) -> bool:
    family = metric.split("@")[0]
    tol = TOLERANCE[family]
    return abs(value - reference) <= tol["abs"] + tol["rel"] * abs(reference)
