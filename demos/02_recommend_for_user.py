"""From raw event logs to a top-L recommendation list for one user."""

import io

from tridiff import Scorer, core_filter, parse

OBJECT_LOG = """\
userId,movieId,rating
1,101,5
1,102,4
2,101,3
2,103,4
2,104,5
3,102,5
3,103,2
3,104,4
"""

TAG_LOG = """\
userId,movieId,tag
1,101,Heist
2,101,heist
2,103,Noir
3,103,noir
3,104,Heist
"""

records = parse(io.StringIO(OBJECT_LOG), io.StringIO(TAG_LOG))
dataset = core_filter(records)
print(
    f"after core filtering: {len(dataset.users)} users, "
    f"{len(dataset.objects)} movies, {len(dataset.tags)} tags"
)

target = dataset.users.index_of("1")
scorer = Scorer(dataset, "diffusion")
p_obj, p_tag = (p[0] for p in scorer.channel_scores([target]))
movies = dataset.objects.ids.tolist()

for lam in (0.0, 0.74, 1.0):
    listing = scorer.top_l(scorer.combine(p_obj, p_tag, lam), L=3)
    pretty = [(movies[o], round(s, 4)) for o, s in listing]
    print(f"lambda={lam}: top movies for user 1 -> {pretty}")
