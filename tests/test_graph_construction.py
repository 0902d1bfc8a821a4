"""Graph construction on the prediction path against the plain formulas.

``from_dense``, ``graph_union``, ``buckets_to_graph``,
``distance_pairing``, ``window_global_graph``, ``bigbird_random_blocks``
and ``expand_blocks`` build their edge lists without re-sorting; each is checked here against
the straightforward construction on random inputs: n = 1, n != m, empty
rows and causal masks included.  The pair rules are also checked with
their row blocks cut down to a few cells.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparseattn import (
    AttentionGraph,
    BucketAssignment,
    PatternConfig,
    _kernels,
    bigbird_random_blocks,
    buckets_to_graph,
    distance_pairing,
    expand_blocks,
    graph_union,
    window_global_graph,
)

from oracles import bigbird_random_blocks_dense

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


def _shapes(data):
    causal = data.draw(st.booleans())
    n = data.draw(st.integers(1, 8))
    m = n if causal else data.draw(st.integers(1, 8))
    return causal, n, m


class TestBucketsToGraph:
    @SETTINGS
    @given(st.data())
    def test_equals_shared_bucket_loop(self, data):
        # arbitrary membership, so tokens with no bucket (routing) occur
        causal, n, m = _shapes(data)
        B = data.draw(st.integers(1, 6))
        q = data.draw(arrays(bool, (n, B)))
        k = data.draw(arrays(bool, (m, B)))
        graph = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        _same(graph, _reference(_shared_bucket_oracle(q, k, causal), causal))

    @pytest.mark.parametrize("cap", [1, 2, 5, 16, 64])
    @SETTINGS
    @given(data=st.data())
    def test_small_row_blocks(self, cap, data):
        causal, n, m = _shapes(data)
        B = data.draw(st.integers(1, 4))
        q = data.draw(arrays(bool, (n, B)))
        k = data.draw(arrays(bool, (m, B)))
        with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
            graph = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        _same(graph, _reference(_shared_bucket_oracle(q, k, causal), causal))


class TestDistancePairing:
    @pytest.mark.parametrize("cap", [1, 2, 5, 16, 64, 1 << 16])
    @SETTINGS
    @given(data=st.data())
    def test_equals_distance_rule(self, cap, data):
        # coordinates on a half-integer grid and thresholds whose squares are
        # exact, so every distance is exact and ties (d == t) occur
        causal, n, m = _shapes(data)
        r = data.draw(st.integers(1, 3))
        coords = arrays(np.float64, (n + m, r), elements=st.integers(-3, 3).map(lambda v: v / 2))
        X = data.draw(coords)
        Qp, Kp = X[:n], X[n:]
        t = data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]))
        with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
            graph = distance_pairing(Qp, Kp, t, causal)
        dense = np.zeros((n, m), dtype=bool)
        for i in range(n):
            for j in range(m):
                dense[i, j] = (not causal or j <= i) and sum(
                    (a - b) ** 2 for a, b in zip(Qp[i], Kp[j])) <= t * t
        _same(graph, _reference(dense, causal))


class TestBigBird:
    @SETTINGS
    @given(st.data())
    def test_equals_dense_block_loop(self, data):
        causal = data.draw(st.booleans())
        n = data.draw(st.integers(1, 12))
        m = n if causal else data.draw(st.integers(1, 12))
        block_size = data.draw(st.integers(1, 3))
        # up to more blocks than exist: then every candidate is drawn
        num_blocks = data.draw(st.integers(0, 160))
        seed = data.draw(st.integers(0, 2**32))
        graph = bigbird_random_blocks(n, m, num_blocks, block_size, seed, causal)
        expected = bigbird_random_blocks_dense(n, m, num_blocks, block_size, seed, causal)
        assert (graph.n, graph.m, graph.causal) == (n, m, causal)
        assert graph._lin.dtype == np.int64
        assert np.array_equal(graph._lin, expected)
        assert not graph._lin.flags.writeable


class TestExpandBlocks:
    @SETTINGS
    @given(st.data())
    def test_equals_dense_block_lookup(self, data):
        causal, n, m = _shapes(data)
        z = data.draw(st.integers(1, 4))
        blocks, _ = data.draw(masks(causal=causal, shape=(-(-n // z), -(-m // z))))
        graph = expand_blocks(AttentionGraph.from_dense(blocks, causal), z, n, m)
        dense = blocks[np.arange(n)[:, None] // z, np.arange(m)[None, :] // z]
        if causal:
            dense &= np.tri(n, m, dtype=bool)
        _same(graph, _reference(dense, causal))

    def test_causal_needs_square(self):
        blocks = AttentionGraph(2, 2, [(1, 0)], causal=True)
        with pytest.raises(ValueError):
            expand_blocks(blocks, 4, 7, 8)


def _window_reference(n, m, window, globals_, causal):
    i = np.arange(n)[:, None]
    j = np.arange(m)[None, :]
    dense = (np.abs(i - j) <= window // 2) if window else np.zeros((n, m), dtype=bool)
    for g in globals_:
        dense = dense | (i == g) | (j == g)
    if causal:
        dense &= j <= i
    return _reference(dense, causal)


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
        _same(window_global_graph(n, m, pc), _window_reference(n, m, window, globals_, causal))

    @SETTINGS
    @given(st.data())
    def test_wide_window_and_global_past_the_keys(self, data):
        # non-causal, n > m, one global query g >= m (it has no key column),
        # windows from 1 up to well past both n and m
        m = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(m + 1, 12))
        window = data.draw(st.integers(0, 14).map(lambda h: 2 * h + 1))
        globals_ = {data.draw(st.integers(m, n - 1))} | data.draw(
            st.sets(st.integers(0, n - 1), max_size=2))
        pc = PatternConfig(window=window, global_tokens=tuple(globals_))
        _same(window_global_graph(n, m, pc), _window_reference(n, m, window, globals_, False))
