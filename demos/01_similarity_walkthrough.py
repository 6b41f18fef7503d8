"""Walk through the diffusion similarity on a tiny user-object graph.

Three users, two movies:

    u1 -- o1, o2
    u2 -- o1
    u3 -- o2

A unit of "recommender power" starts on the target user, spreads equally to
their movies, then spreads equally back to everyone who collected those
movies. The share each user ends up with is their similarity to the target.
"""

from tridiff import EntityIndexMap, Scorer, TripartiteDataset, build_graph
from tridiff.similarity import cosine_vector, diffusion_vector, jaccard_vector


def nonzero(vec):
    """The nonzero entries of a dense vector, rounded for printing."""
    return {u: round(float(s), 5) for u, s in enumerate(vec) if s}


g = build_graph([(0, 0), (0, 1), (1, 0), (2, 1)], left_count=3, right_count=2)

print("step 1: u1 splits its unit over the movies it collected")
movies = g.left_neighbors(0)
print("  ", {int(a): 1.0 / len(movies) for a in movies})

print("\nstep 2: each movie splits its share over its collectors")
for v, name in enumerate(["u1", "u2", "u3"]):
    row = diffusion_vector(g, v)
    print(f"  row toward {name}: {nonzero(row)}  (sums to {row.sum():.3f})")

print("\nnote the asymmetry: s(u1 <- u2) = 0.5 but s(u2 <- u1) = 0.25.")
print("popular users give away less per neighbor than niche ones.")

print("\nthe classic baselines are symmetric by construction:")
print("  cosine  toward u1:", nonzero(cosine_vector(g, 0)))
print("  jaccard toward u1:", nonzero(jaccard_vector(g, 0)))

# A second channel (e.g. from a user-tag graph) fuses linearly; the weight
# slides between pure tag information (0) and pure collection information (1).
# Each channel's similarities are scattered over the collections of the other
# users into movie scores, and the Scorer fuses the two score vectors.
dataset = TripartiteDataset(
    users=EntityIndexMap.from_ids(["u1", "u2", "u3"]),
    objects=EntityIndexMap.from_ids(["o1", "o2"]),
    tags=EntityIndexMap.from_ids(["t1", "t2"]),
    user_object=g,
    user_tag=build_graph([(0, 0), (1, 0), (2, 1)], left_count=3, right_count=2),
)
scorer = Scorer(dataset, "diffusion")
p_obj, p_tag = scorer.channel_scores(2)
print("\nfusing object and tag channels for u3, who collected only o2:")
print("(nobody else used u3's tag, so the tag channel alone scores nothing)")
for lam in (0.0, 0.5, 1.0):
    listing = scorer.top_l(scorer.combine(p_obj, p_tag, lam), 2, L=2)
    print(f"  lambda={lam}: {[(dataset.objects.external_ids[o], s) for o, s in listing]}")
