import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseattn import (
    DataError,
    KMeansConfig,
    SyntheticSpec,
    extract_graph,
    generate_instances,
    kmeans_fit,
    load_centroids,
    load_head,
    load_qk,
    read_graph,
    read_tensor,
    save_qk,
    sparsity,
    write_tensor,
)
from sparseattn.errors import ConfigError


class TestGenerate:
    def test_seeded_repeat_identical(self):
        spec = SyntheticSpec(n=16, m=16, d=8, num_instances=3, seed=42)
        a = generate_instances(spec)
        b = generate_instances(spec)
        assert len(a) == len(b) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.Q, y.Q) and np.array_equal(x.K, y.K)

    def test_cluster_structure_in_gold_graph(self):
        spec = SyntheticSpec(
            n=16, m=16, d=8, num_clusters=2, cluster_std=0.1, center_scale=1.5, seed=1
        )
        sm = generate_instances(spec)[0]
        # recover the two tight clusters from the data itself
        cq = kmeans_fit(sm.Q, 2, KMeansConfig(seed=0))
        ck = kmeans_fit(sm.K, 2, KMeansConfig(seed=0))
        # align centroid indices between the two fits
        flip = np.linalg.norm(cq.C[0] - ck.C[0]) > np.linalg.norm(cq.C[0] - ck.C[1])
        lab_q = np.argmin(np.linalg.norm(sm.Q[:, None] - cq.C[None], axis=2), axis=1)
        lab_k = np.argmin(np.linalg.norm(sm.K[:, None] - ck.C[None], axis=2), axis=1)
        if flip:
            lab_k = 1 - lab_k
        gold = extract_graph(sm)
        within = cross = 0
        for i, j in gold.edge_set():
            if lab_q[i] == lab_k[j]:
                within += 1
            else:
                cross += 1
        within_pairs = np.sum(lab_q[:, None] == lab_k[None, :])
        cross_pairs = 16 * 16 - within_pairs
        assert within / within_pairs > cross / max(cross_pairs, 1)

    def test_single_cluster_denser_than_two(self):
        base = dict(n=16, m=16, d=8, cluster_std=0.1, center_scale=1.5, seed=2)
        one = generate_instances(SyntheticSpec(num_clusters=1, **base))[0]
        two = generate_instances(SyntheticSpec(num_clusters=2, **base))[0]
        assert extract_graph(one).edge_count > extract_graph(two).edge_count

    def test_low_rank_generator(self):
        spec = SyntheticSpec(n=10, m=12, d=8, generator="low-rank", rank=3, seed=3)
        sm = generate_instances(spec)[0]
        assert np.linalg.matrix_rank(sm.Q) <= 3
        assert np.linalg.matrix_rank(sm.K) <= 3

    def test_heads_and_instances_labeled(self):
        spec = SyntheticSpec(n=8, m=8, d=6, num_heads=2, num_instances=3, seed=4)
        mats = generate_instances(spec)
        assert len(mats) == 6
        assert {(sm.instance, sm.head) for sm in mats} == {(i, h) for i in range(3) for h in range(2)}

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(generator="nope")
        with pytest.raises(ConfigError):  # removed: point `data` at a manifest's directory
            SyntheticSpec(generator="loaded")
        with pytest.raises(ConfigError):
            SyntheticSpec(n=4, m=5, causal=True)


class TestTensorFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.normal(size=(7, 3)) * np.exp(rng.uniform(-30, 30, (7, 3)))
        path = tmp_path / "t.txt"
        write_tensor(arr, path)
        assert np.array_equal(read_tensor(path), arr)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "t.txt"
        write_tensor([[0.1, -0.0], [1e300, 2.0]], path)
        assert path.read_bytes() == b"TENSOR 2 2\n0.10000000000000001 -0\n1.0000000000000001e+300 2\n"

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.txt"
        write_tensor(np.ones((3, 2)), path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(DataError):
            read_tensor(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("TENSOR 3 2\n1 2\n3 4\n")
        with pytest.raises(DataError, match="promises 3 rows"):
            read_tensor(path)

    def test_bad_header_and_values(self, tmp_path):
        for k, text in enumerate([
            "",  # empty
            "MATRIX 2 2\n1 2\n3 4\n",  # wrong magic
            "TENSOR 2\n1\n2\n",  # missing d
            "TENSOR 2 2\n1 2\n3 x\n",  # non-numeric
            "TENSOR 2 2\n1 2\n3 inf\n",  # non-finite
            "TENSOR 2 2\n1 2 5\n3 4\n",  # too many columns
        ]):
            path = tmp_path / f"bad{k}.txt"
            path.write_text(text)
            with pytest.raises(DataError):
                read_tensor(path)


@pytest.mark.parametrize("reader, content", [
    (read_tensor, b"TENSOR 1 2\n1 \xe9\n"),  # non-ASCII byte
    (read_graph, b"2 2 0 1\n0 \xff\n"),  # non-ASCII byte
    (load_head, b"-1 1\n\n"),  # negative size
    (load_centroids, b"1 -2\n\n"),  # negative size
    (load_head, b"4 0\n"),  # r = 0
    (load_centroids, b"1 0\n\n"),  # r = 0
    (load_centroids, b"1 2\n1 inf\n"),  # non-finite value
    (read_graph, b"3 3 0 2\n0 1\n0 1\n"),  # an edge listed twice
    (read_graph, b"3 3 0 1\n0 99999999999999999999\n"),  # index beyond int64
    (read_graph, b"4 9999999999999999999999999 0 1\n0 1\n"),  # m beyond int64
    (read_graph, b"4611686018427387904 4 0 1\n0 1\n"),  # n * m beyond int64
    (load_centroids, b"0 4611686018427387904\n"),  # a row beyond 2**63 bytes
    (read_tensor, b"TENSOR 0 99999999999999999999\n"),  # d beyond int64
])
def test_reader_rejects_defect(tmp_path, reader, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(DataError):
        reader(path)


# Fuzzing: arbitrary bytes, and files shaped like each format -- a header
# whose fields follow the body's row and column counts or are replaced by an
# odd word, a grid of mostly small integers, stray lines, odd separators and
# line ends -- so that inputs get past the header into every later check.
_SMALL = st.sampled_from(["0", "1", "2", "3", "4"])
_ODD = st.sampled_from([
    "-1", "+2", "007", "1.5", "-0.0", "1e400", "-1e-400", "inf", "-inf", "nan", "x", "0x10",
    "1_0", "99999999999999999999", "9" * 25, "9" * 400, "4611686018427387904", "TENSOR", "é",
])
_WORD = st.one_of(_SMALL, _SMALL, _SMALL, _ODD)
_SEP = st.sampled_from([" ", " ", "  ", "\t", "\x0b", "\x1c", "\x00"])
_END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c"])

# per format: the header fields as functions of the body's (rows, columns),
# and the usual column count
_FORMATS = {
    "read_tensor": (("TENSOR", lambda r, c: r, lambda r, c: c), 3),
    "read_graph": (("4", "4", "0", lambda r, c: r), 2),
    "load_head": ((lambda r, c: c - 1, lambda r, c: r), 4),
    "load_centroids": ((lambda r, c: r, lambda r, c: c), 2),
}


@st.composite
def _shaped(draw, reader):
    fields, usual = _FORMATS[reader]
    rows = draw(st.integers(0, 4))
    cols = draw(st.one_of(st.just(usual), st.integers(1, 4)))
    exact = [str(f(rows, cols) if callable(f) else f) for f in fields]
    header = [draw(st.one_of(st.just(w), st.just(w), st.just(w), _ODD)) for w in exact]
    lines = [header] + [[draw(_WORD) for _ in range(cols)] for _ in range(rows)]
    lines += draw(st.lists(st.lists(_WORD, max_size=5), max_size=2))
    return "".join(
        "".join(w + draw(_SEP) for w in line) + draw(_END) for line in lines
    ).encode()


@pytest.mark.parametrize("reader", [read_tensor, read_graph, load_head, load_centroids])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_loads_or_raises_data_error(reader, data):
    content = data.draw(st.one_of(st.binary(max_size=80), _shaped(reader.__name__)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            reader(path)
        except DataError:
            pass


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        spec = SyntheticSpec(n=9, m=7, d=5, num_heads=2, num_instances=2, seed=6)
        mats = generate_instances(spec)
        manifest = save_qk(mats, tmp_path / "data")
        loaded = load_qk(manifest)
        assert len(loaded) == len(mats)
        by_key = {(sm.layer, sm.head, sm.instance): sm for sm in mats}
        for sm in loaded:
            orig = by_key[(sm.layer, sm.head, sm.instance)]
            assert np.array_equal(sm.Q, orig.Q)
            assert np.array_equal(sm.K, orig.K)
            assert sm.causal == orig.causal

    def test_load_from_directory(self, tmp_path):
        mats = generate_instances(SyntheticSpec(n=6, m=6, d=4, seed=7))
        save_qk(mats, tmp_path / "data")
        assert len(load_qk(tmp_path / "data")) == 1

    def test_missing_pair(self, tmp_path):
        mats = generate_instances(SyntheticSpec(n=6, m=6, d=4, seed=8))
        manifest = save_qk(mats, tmp_path / "data")
        with open(manifest) as fh:
            meta = json.load(fh)
        meta["matrices"] = [e for e in meta["matrices"] if e["role"] != "K"]
        with open(manifest, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(DataError, match="missing its Q or K"):
            load_qk(manifest)

    @pytest.mark.parametrize("edit", [
        lambda doc: {"matrices": 5},
        lambda doc: {"matrices": ["l0_h0_i0_q.txt"] + doc["matrices"][1:]},
        lambda doc: {"matrices": [{**doc["matrices"][0], "path": 123}] + doc["matrices"][1:]},
        lambda doc: {},
        lambda doc: [doc],
        lambda doc: {"matrices": [{**e, "causal": "false"} for e in doc["matrices"]]},
        lambda doc: {"matrices": [{**e, "layer": 0.7} for e in doc["matrices"]]},
        lambda doc: {"matrices": [{**e, "head": True} for e in doc["matrices"]]},
        lambda doc: {"matrices": [{**e, "instance": 0.0} for e in doc["matrices"]]},
        lambda doc: {"matrices": [{**e, "layer": "0"} for e in doc["matrices"]]},
        lambda doc: {"matrices": [{k: v for k, v in e.items() if k != "head"}
                                  for e in doc["matrices"]]},
    ], ids=["matrices-not-a-list", "entry-not-an-object", "path-not-a-string",
            "no-matrices", "not-an-object", "string-causal-flag", "float-layer",
            "bool-head", "float-instance", "string-layer", "no-head"])
    def test_malformed_manifest_is_data_error(self, tmp_path, edit):
        manifest = save_qk(generate_instances(SyntheticSpec(n=6, m=6, d=4, seed=8)),
                           tmp_path / "data")
        with open(manifest) as fh:
            doc = json.load(fh)
        with open(manifest, "w") as fh:
            json.dump(edit(doc), fh)
        with pytest.raises(DataError, match="manifest.json"):
            load_qk(manifest)

    def test_instance_defaults_to_zero(self, tmp_path):
        manifest = save_qk(generate_instances(SyntheticSpec(n=6, m=6, d=4, seed=8)),
                           tmp_path / "data")
        with open(manifest) as fh:
            doc = json.load(fh)
        for entry in doc["matrices"]:
            del entry["instance"]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        assert [sm.instance for sm in load_qk(manifest)] == [0]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_qk(tmp_path / "nowhere")

    def test_sparsity_recomputable_from_files(self, tmp_path):
        mats = generate_instances(SyntheticSpec(n=12, m=12, d=6, seed=9))
        manifest = save_qk(mats, tmp_path / "data")
        orig = sparsity(extract_graph(mats[0]))
        again = sparsity(extract_graph(load_qk(manifest)[0]))
        assert orig == again
