import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from tridiff import core
from tridiff.core import (
    BipartiteGraph,
    EntityIndexMap,
    GraphConstructionError,
    IndexMapError,
    build_graph,
)

from tridiff.recommend import Scorer

from conftest import F1_EDGES, make_dataset, scipy_matrix


def edge_lists(max_left=20, max_right=20):
    return st.integers(1, max_left).flatmap(
        lambda m: st.integers(1, max_right).flatmap(
            lambda n: st.tuples(
                st.just(m),
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                    max_size=80,
                ),
            )
        )
    )


# ids of mixed length and non-ASCII text, the empty string among them; a small
# alphabet (interior NULs included) makes repeats common. A trailing NUL is
# refused before the repeat check.
ID_LISTS = st.lists(
    st.one_of(st.text(max_size=8), st.text(alphabet="ab\0\u00e9\U0001f600", max_size=3)).filter(
        lambda s: not s.endswith("\0")
    ),
    max_size=12,
)


class TestEntityIndexMap:
    def test_bijection(self):
        idx = EntityIndexMap([str(i) for i in range(7)])
        for i, ext in enumerate(idx.ids.tolist()):
            assert idx.index_of(ext) == i
        assert sorted(idx.index_of(e) for e in idx.ids.tolist()) == list(range(len(idx)))

    def test_index_of_is_exact(self):
        # numpy's str == ignores trailing NULs: np.array([""]) == "\0" is True
        present = ["b", "a", "a\0c", "", "\u00e9", "\U0001f600x"]
        for idx in (EntityIndexMap(present), EntityIndexMap(np.array(present))):
            assert [idx.index_of(e) for e in present] == list(range(len(present)))
            for absent in ["c", "A", "a\0", "b\0", "\0", "\0\0", "a\0c\0", "\u00e9\0"]:
                with pytest.raises(KeyError):
                    idx.index_of(absent)
        with pytest.raises(KeyError):
            EntityIndexMap([]).index_of("")

    @settings(max_examples=300, deadline=None)
    @given(ID_LISTS)
    @example([])
    @example([""])
    @example(["", ""])
    @example(["a", "a\0b", "a"])
    def test_repeat_check_is_exact(self, ids):
        # once with the fingerprints and once with all of them equal, which
        # sends every map to the exact check
        repeats = len(set(ids)) != len(ids)
        colliding = lambda array: np.zeros(len(array), dtype=np.uint64)
        for fingerprints in (core._fingerprints, colliding):
            with mock.patch.object(core, "_fingerprints", fingerprints):
                for source in (ids, np.array(ids, dtype=str)):
                    if repeats:
                        with pytest.raises(IndexMapError, match="repeats"):
                            EntityIndexMap(source)
                    else:  # the ids, in the dtype np.array gives them (snapshot bytes)
                        idx = EntityIndexMap(source)
                        assert idx.ids.tolist() == list(ids)
                        assert idx.ids.dtype == np.array(ids, dtype=str).dtype

    @pytest.mark.parametrize("ids", [["a", "b", "c"], ["a", "b", "a"]], ids=["distinct", "repeat"])
    def test_fingerprint_collision_runs_exact_check(self, monkeypatch, ids):
        calls = []

        def colliding(array):
            calls.append(len(array))
            return np.zeros(len(array), dtype=np.uint64)

        monkeypatch.setattr(core, "_fingerprints", colliding)
        if len(set(ids)) != len(ids):
            with pytest.raises(IndexMapError, match="repeats"):
                EntityIndexMap(ids)
        else:
            assert EntityIndexMap(ids).ids.tolist() == ids
        assert calls == [3]

    def test_fingerprints_tell_these_ids_apart(self):
        # widths 1 to 7, non-ASCII, interior NULs, the empty id, and ids that
        # differ in their first or their last code point only
        ids = np.array(
            ["", "a", "b", "ab", "ba", "a\0b", "\u00e9", "\U0001f600", "1" * 7, "1" * 6 + "2",
             "2" + "1" * 6]
        )
        assert len(set(core._fingerprints(ids).tolist())) == len(ids)

    def test_id_ending_in_nul_is_refused(self):
        for ids in (["u0\0"], ["u0", "u1\0"], ["\0"]):
            with pytest.raises(IndexMapError, match="NUL"):
                EntityIndexMap(ids)
        assert EntityIndexMap(["u\0v"]).ids.tolist() == ["u\0v"]

    @pytest.mark.parametrize(
        "ids", [np.array([["a", "b"]]), np.arange(2), np.array([b"a", b"b"])],
        ids=["2d", "int", "bytes"],
    )
    def test_array_must_be_1d_str(self, ids):
        with pytest.raises(IndexMapError, match="1-D str array"):
            EntityIndexMap(ids)

    def test_ids_from_strs_or_array_agree(self):
        def ids(source):
            return EntityIndexMap(source).ids.tolist()

        assert ids(["a", "bb"]) == ids(np.array(["a", "bb"], dtype="U5"))
        assert ids(["a", "bb"]) != ids(["bb", "a"])
        assert ids(["a"]) != ids(["a", "b"])
        assert ids([]) == ids(np.array([], dtype=str))


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([], 3, 2)
        assert g.edge_count == 0
        assert all(g.left_degrees[u] == 0 for u in range(3))
        assert g.right_degrees.tolist() == [0, 0]

    def test_duplicate_collapse(self):
        g = build_graph([(0, 0), (0, 0), (0, 1)], 2, 2)
        assert g.edge_count == 2
        assert g.left_degrees[0] == 2

    def test_f1_degrees(self):
        g = build_graph(F1_EDGES, 3, 2)
        assert [g.left_degrees[u] for u in range(3)] == [2, 1, 1]
        assert g.right_degrees.tolist() == [2, 2]

    def test_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            build_graph([(3, 0)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 2)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(-1, 0)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 0, 1)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph([(0, 1), (2,)], 3, 2)
        with pytest.raises(GraphConstructionError):
            build_graph(np.zeros((1, 3), dtype=np.int64), 3, 2)
        # non-integer indices are rejected, not truncated or parsed
        for bad in ([[0.5, 1]], [["1", 0]], [(0, None)], np.array([[0.5, 1.0]])):
            with pytest.raises(GraphConstructionError):
                build_graph(bad, 3, 2)


# a valid graph: u0: {0, 2}, u1: {}, u2: {1}; shape (3, 3)
GOOD_INDPTR, GOOD_INDICES = [0, 2, 2, 3], [0, 2, 1]


class TestBipartiteGraphChecks:
    @pytest.mark.parametrize(
        "indptr, indices, reason",
        [
            (GOOD_INDPTR, [0, 0, 1], "repeated"),  # u0 holds 0 twice
            (GOOD_INDPTR, [2, 0, 1], "unsorted"),
            (GOOD_INDPTR, [0, 3, 1], "out of range"),
            (GOOD_INDPTR, [0, -1, 1], "out of range"),
            (GOOD_INDPTR, [0.0, 2.0, 1.0], "indices must be"),
            (GOOD_INDPTR, np.array([0, 2, 1], dtype=np.uint32), "indices must be"),
            (GOOD_INDPTR, [[0, 2, 1]], "indices must be"),
            ([1, 2, 2, 3], GOOD_INDICES, "from 0"),
            ([0, 2, 1, 3], GOOD_INDICES, "decreases"),
            ([0, 2, 2, 2], GOOD_INDICES, "len(indices), 3"),  # ends before the last index
            ([0, 2, 2, 4], GOOD_INDICES, "len(indices), 3"),  # ends past it
            (np.zeros(0, dtype=np.int64), GOOD_INDICES, "0 entries; 3 rows need 4"),
            ([0, 2, 3], GOOD_INDICES, "3 entries; 3 rows need 4"),  # canonical for 2 rows
            ([0.0, 2.0, 2.0, 3.0], GOOD_INDICES, "indptr must be"),
        ],
        ids=[
            "repeated_edge", "unsorted_row", "index_too_large", "negative_index",
            "float_indices", "unsigned_indices", "2d_indices", "indptr_start",
            "indptr_decreasing", "indptr_short", "indptr_long", "empty_indptr",
            "row_short", "float_indptr",
        ],
    )
    def test_refuses_non_canonical_csr(self, indptr, indices, reason):
        good = BipartiteGraph(np.array(GOOD_INDPTR), np.array(GOOD_INDICES), (3, 3))
        assert scipy_matrix(good).data.tolist() == [1.0, 1.0, 1.0]
        assert scipy_matrix(good).toarray().tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
        with pytest.raises(GraphConstructionError, match=re.escape(reason)):
            BipartiteGraph(np.asarray(indptr), np.asarray(indices), (3, 3))


def scipy_csr(edges, m, n):
    """scipy's coo -> csr reference, duplicates summed."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    matrix = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(m, n)
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


@st.composite
def wide_edge_lists(draw):
    """Edge lists with repeats, empty rows or no edges at all, and indices
    at the last node, over right counts up to past the int32 range."""
    m = draw(st.integers(1, 12))
    n = draw(st.sampled_from([1, 2, 7, 2**31 - 1, 2**31, 2**40]))

    def node(count):
        return st.one_of(st.just(count - 1), st.just(0), st.integers(0, count - 1))

    pairs = draw(st.lists(st.tuples(node(m), node(n)), max_size=30))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # repeats
    return m, n, pairs


class TestBuildGraphMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(wide_edge_lists())
    def test_same_csr_arrays_and_dtype(self, spec):
        m, n, edges = spec
        g, ref = build_graph(edges, m, n), scipy_csr(edges, m, n)
        assert g.indptr.tolist() == ref.indptr.tolist()
        assert g.indices.tolist() == ref.indices.tolist()
        assert g.indptr.dtype == g.indices.dtype == ref.indptr.dtype == ref.indices.dtype


class TestGraphInvariants:
    @settings(max_examples=150)
    @given(edge_lists())
    def test_degree_sums_and_roundtrip(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        assert g.left_degrees.sum() == g.right_degrees.sum() == g.edge_count
        assert g.edge_count == len(set(edges))
        # both directions enumerate the same edge set
        from_left = {
            (u, int(x)) for u in range(m)
            for x in g.indices[g.indptr[u] : g.indptr[u + 1]]
        }
        by_right = scipy_matrix(g).T.tocsr()
        assert np.array_equal(g.right_degrees, np.diff(by_right.indptr))
        from_right = {
            (int(u), x)
            for x in range(n)
            for u in by_right.indices[by_right.indptr[x] : by_right.indptr[x + 1]]
        }
        assert from_left == from_right == set(map(tuple, g.edge_array().tolist()))

    @settings(max_examples=100)
    @given(edge_lists())
    def test_rebuild_identity(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        g2 = build_graph(g.edge_array().tolist(), m, n)
        assert g2.edge_array().tolist() == g.edge_array().tolist()

    @settings(max_examples=100)
    @given(edge_lists())
    def test_neighbor_lists_sorted_unique(self, spec):
        m, n, edges = spec
        g = build_graph(edges, m, n)
        for u in range(m):
            neigh = g.indices[g.indptr[u] : g.indptr[u + 1]]
            assert np.all(np.diff(neigh) > 0)

    @settings(max_examples=150, deadline=None)
    @given(edge_lists().flatmap(
        lambda spec: st.tuples(st.just(spec), st.lists(st.integers(0, spec[0] - 1), max_size=12))
    ))
    # user 1 has no edge; users repeat, out of order; the empty block
    @example(((3, 2, [(0, 0), (0, 1), (2, 1)]), [1, 2, 1, 0, 2, 1]))
    @example(((3, 2, [(0, 0), (0, 1), (2, 1)]), []))
    def test_block_edges_concatenate_neighbors(self, case):
        (m, n, edges), lefts = case
        g = build_graph(edges, m, n)
        rows, right = g.block_edges(lefts)
        neighbors = [g.indices[g.indptr[u] : g.indptr[u + 1]].tolist() for u in lefts]
        assert rows.tolist() == [i for i, neigh in enumerate(neighbors) for _ in neigh]
        assert right.tolist() == [x for neigh in neighbors for x in neigh]


@st.composite
def products(draw):
    """A graph whose indptr and indices are int32 or int64 each, with rows
    and columns of degree zero or no edges at all, whether its transpose
    multiplies, and a float64 block x of one or k columns, held in C order,
    as a transposed view or as a strided view."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    mask = np.array(cells, dtype=bool).reshape(m, n)
    indptr = np.zeros(m + 1, dtype=draw(st.sampled_from([np.int32, np.int64])))
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(mask)[1].astype(draw(st.sampled_from([np.int32, np.int64])))
    graph = BipartiteGraph(indptr, indices, (m, n))
    transposed = draw(st.booleans())
    length = m if transposed else n
    shape = (length, draw(st.sampled_from([1, 2, 3, 5])))
    layout = draw(st.sampled_from(["C", "transposed", "strided"]))
    if layout == "transposed":
        shape = shape[::-1]
    elif layout == "strided":
        shape = (2 * length, shape[1])
    values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1e300])
    count = int(np.prod(shape))
    x = np.array(draw(st.lists(values, min_size=count, max_size=count))).reshape(shape)
    return graph, transposed, {"C": x, "transposed": x.T, "strided": x[::2]}[layout]


class TestProductsMatchScipy:
    @settings(max_examples=300, deadline=None)
    @given(products())
    def test_same_bytes_as_scipy(self, case):
        graph, transposed, x = case
        got = graph.tdot(x) if transposed else graph.dot(x)
        reference = scipy_matrix(graph)
        expected = (reference.T if transposed else reference) @ x
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_one_column_takes_the_vector_kernel(self, monkeypatch, f1_dataset):
        # _matvecs over a single column cost a recommend ~0.4 ms
        kernels, calls = core._sparsetools(), []

        class Spy:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(kernels, name)

        monkeypatch.setattr(core, "_sparsetools", Spy)
        graph = f1_dataset.user_object
        graph.dot(np.ones((2, 1))), graph.dot(np.ones((2, 3)))
        graph.tdot(np.ones((3, 1))), graph.tdot(np.ones((3, 2)))
        assert calls == ["csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"]
        calls.clear()
        Scorer(f1_dataset, "diffusion").channel_scores([0])
        assert calls == ["csr_matvec", "csc_matvec"] * 2

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (3, 1), (2, 2, 1), (), (2,)])
    def test_shape_mismatch_raises(self, f1_graph, shape):
        # the kernels read x unchecked; a vector is not a block
        with pytest.raises(ValueError, match="cannot multiply"):
            f1_graph.dot(np.ones(shape))


class TestTripartiteDataset:
    def test_degree_accessors(self, f1_dataset):
        assert f1_dataset.user_object.left_degrees[0] == 2
        assert f1_dataset.user_tag.left_degrees[0] == 1

    def test_zero_degree_user(self):
        ds = make_dataset([(1, 0)], [(0, 0), (1, 0)], 2, 1, 1)
        assert ds.user_object.left_degrees[0] == 0

    def test_degree_out_of_range(self, f1_dataset):
        with pytest.raises(IndexError):
            f1_dataset.user_object.left_degrees[3]

    def test_star_user_degree(self):
        # one user linked to every object and every tag
        n, r = 4, 3
        ds = make_dataset(
            [(0, x) for x in range(n)], [(0, t) for t in range(r)], 1, n, r
        )
        assert ds.user_object.left_degrees[0] == n
        assert ds.user_tag.left_degrees[0] == r

    def test_mismatched_user_counts_rejected(self):
        reason = "user_object graph has shape (1, 1); the id maps give (2, 1)"
        with pytest.raises(ValueError, match=re.escape(reason)):
            make_dataset([(0, 0)], [(0, 0)], 1, 1, 1).__class__(
                users=EntityIndexMap(["u0", "u1"]),
                objects=EntityIndexMap(["o0"]),
                tags=EntityIndexMap(["t0"]),
                user_object=build_graph([(0, 0)], 1, 1),
                user_tag=build_graph([(0, 0)], 2, 1),
            )
