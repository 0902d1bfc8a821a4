"""Graph construction on the prediction path against the plain formulas.

``from_dense``, ``graph_union``, ``buckets_to_graph`` and
``window_global_graph`` build their edge lists without re-sorting; each is
checked here against the straightforward construction on random inputs:
n = 1, n != m, empty rows and causal masks included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparseattn import (
    AttentionGraph,
    BucketAssignment,
    PatternConfig,
    buckets_to_graph,
    graph_union,
    window_global_graph,
)

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def masks(draw, causal=None, shape=None):
    """(dense bool mask, causal flag); causal masks are lower-triangular."""
    if causal is None:
        causal = draw(st.booleans())
    if shape is None:
        n = draw(st.integers(1, 9))
        m = n if causal else draw(st.integers(1, 9))
    else:
        n, m = shape
    dense = draw(arrays(bool, (n, m)))
    if causal:
        dense = np.tril(dense)
    return dense, causal


def _reference(dense, causal):
    """The graph of a dense mask through the public, sorting constructor."""
    return AttentionGraph(dense.shape[0], dense.shape[1], np.argwhere(dense), causal)


def _same(graph, expected):
    assert graph == expected
    assert graph._lin.dtype == np.int64
    assert graph.edges.tobytes() == expected.edges.tobytes()


class TestFromDense:
    @SETTINGS
    @given(masks())
    def test_equals_argwhere_construction(self, mask):
        dense, causal = mask
        _same(AttentionGraph.from_dense(dense, causal=causal), _reference(dense, causal))

    @SETTINGS
    @given(masks(causal=True), st.data())
    def test_causal_cell_above_diagonal_rejected(self, mask, data):
        dense, _ = mask
        n = dense.shape[0]
        if n < 2:
            n = 2
            dense = np.zeros((2, 2), dtype=bool)
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        dense = dense.copy()
        dense[i, j] = True
        with pytest.raises(ValueError):
            AttentionGraph.from_dense(dense, causal=True)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,), (2, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            AttentionGraph.from_dense(np.ones(shape, dtype=bool))

    def test_causal_needs_square(self):
        with pytest.raises(ValueError):
            AttentionGraph.from_dense(np.zeros((2, 3), dtype=bool), causal=True)


class TestGraphUnion:
    @SETTINGS
    @given(st.data())
    def test_equals_union1d(self, data):
        a, causal = data.draw(masks())
        b, _ = data.draw(masks(causal=causal, shape=a.shape))
        ga = AttentionGraph.from_dense(a, causal=causal)
        gb = AttentionGraph.from_dense(b, causal=causal)
        out = graph_union(ga, gb)
        expected = np.union1d(ga._lin, gb._lin)
        assert np.array_equal(out._lin, expected)
        assert out._lin.dtype == expected.dtype
        assert (out.n, out.m, out.causal) == (ga.n, ga.m, causal)
        assert not out._lin.flags.writeable


def _shared_bucket_oracle(q, k, causal):
    n, m = q.shape[0], k.shape[0]
    dense = np.zeros((n, m), dtype=bool)
    for i in range(n):
        for j in range(m):
            if causal and j > i:
                continue
            dense[i, j] = any(q[i, b] and k[j, b] for b in range(q.shape[1]))
    return dense


class TestBucketsToGraph:
    @SETTINGS
    @given(st.data())
    def test_equals_shared_bucket_loop(self, data):
        # arbitrary membership, so tokens with no bucket (routing) occur
        causal = data.draw(st.booleans())
        n = data.draw(st.integers(1, 8))
        m = n if causal else data.draw(st.integers(1, 8))
        B = data.draw(st.integers(1, 6))
        q = data.draw(arrays(bool, (n, B)))
        k = data.draw(arrays(bool, (m, B)))
        graph = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        _same(graph, _reference(_shared_bucket_oracle(q, k, causal), causal))


class TestWindowGlobal:
    @SETTINGS
    @given(st.data())
    def test_equals_distance_formula(self, data):
        causal = data.draw(st.booleans())
        n = data.draw(st.integers(1, 10))
        m = n if causal else data.draw(st.integers(1, 10))
        window = data.draw(st.sampled_from([0, 1, 3, 5, 7, 11, 21, 23]))  # up to >= n
        globals_ = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        pc = PatternConfig(window=window, global_tokens=tuple(globals_), causal=causal)
        i = np.arange(n)[:, None]
        j = np.arange(m)[None, :]
        dense = (np.abs(i - j) <= window // 2) if window else np.zeros((n, m), dtype=bool)
        for g in globals_:
            dense = dense | (i == g) | (j == g)
        if causal:
            dense &= j <= i
        _same(window_global_graph(n, m, pc), _reference(dense, causal))
