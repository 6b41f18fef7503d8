"""Lambda sweep on a synthetic tagged dataset: how much do tags help?

Generates a seeded random tripartite dataset, runs the full evaluation
protocol (repeated 90/10 splits, rank score / Recall@L / Precision@L), and
prints the mean rank score across the lambda grid for the diffusion and
cosine similarities. Lower is better; lambda=1 ignores tags entirely.
"""

import numpy as np

from tridiff.core import EntityIndexMap, TripartiteDataset, build_graph
from tridiff.evaluation import ExperimentConfig, run_sweep

rng = np.random.default_rng(7)
m, n, r = 400, 600, 200

# Users have latent genre preferences. Collections mostly follow the
# preferences (plus noise), and each collection sometimes leaves the movie's
# genre tag, so both channels carry partial, complementary signal.
genre = rng.integers(0, r, size=n)
prefs = [rng.choice(r, size=3, replace=False) for _ in range(m)]
uo = np.zeros((m, n), dtype=bool)
ut = np.zeros((m, r), dtype=bool)
for u in range(m):
    liked = np.isin(genre, prefs[u])
    uo[u] = (rng.random(n) < 0.12) & liked
    uo[u] |= rng.random(n) < 0.004  # off-taste noise
    for o in np.nonzero(uo[u])[0]:
        if rng.random() < 0.15:
            ut[u, genre[o]] = True
    ut[u] |= rng.random(r) < 0.01  # idiosyncratic tags
    if not uo[u].any():
        uo[u, rng.integers(0, n)] = True
    if not ut[u].any():
        ut[u, rng.integers(0, r)] = True

dataset = TripartiteDataset(
    users=EntityIndexMap([f"u{i}" for i in range(m)]),
    objects=EntityIndexMap([f"o{i}" for i in range(n)]),
    tags=EntityIndexMap([f"t{i}" for i in range(r)]),
    user_object=build_graph(list(zip(*(a.tolist() for a in np.nonzero(uo)))), m, n),
    user_tag=build_graph(list(zip(*(a.tolist() for a in np.nonzero(ut)))), m, r),
)

grid = tuple(round(0.1 * i, 10) for i in range(11))
print("lambda  diffusion  cosine")
# both kinds are scored on the same three splits
reports = run_sweep(
    dataset,
    ExperimentConfig(
        similarity_kinds=("diffusion", "cosine"), lambda_grid=grid, runs=3,
        train_fraction=0.9, list_lengths=(10, 20), base_seed=1,
    ),
)
# means[g, k] is metric k (rank score first) averaged over runs at grid[g]
for g, lam in enumerate(grid):
    d = reports["diffusion"].means[g, 0]
    c = reports["cosine"].means[g, 0]
    print(f"{lam:>6}  {d:.5f}    {c:.5f}")

for kind in ("diffusion", "cosine"):
    lam, value = reports[kind].optima["rank_score"]
    tag_free = reports[kind].means[grid.index(1.0), 0]
    gain = (tag_free - value) / tag_free
    print(
        f"{kind}: best mean rank score {value:.5f} at lambda={lam} "
        f"({gain:.1%} better than ignoring tags)"
    )
