"""Each check accepts the program's output and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks as ck  # noqa: E402
import sparseattn as sa  # noqa: E402
from workloads import require_one_digest  # noqa: E402


def instance(n=48, d=8, seed=0, causal=False):
    rng = np.random.default_rng(seed)
    return sa.ScoreMatrix(rng.normal(size=(n, d)), rng.normal(size=(n, d)), causal=causal)


@pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
def test_entmax_rows_matches_the_program(alpha):
    sm = instance(seed=1)
    P, S, tau = ck.entmax_rows(ck.scores(sm.Q, sm.K), alpha)
    expected = sa.attention_probs(sm, sa.EntmaxParams(alpha=alpha))
    assert np.max(np.abs(P - expected)) <= 1e-8
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.array_equal(P > 0, S > tau[:, None])


def test_entmax_rows_sparsemax_by_hand():
    # sparsemax of (1, 0.5, -1): tau = 0.25, p = (0.75, 0.25, 0)
    P, _, _ = ck.entmax_rows(np.array([[1.0, 0.5, -1.0]]), 2.0)
    assert np.allclose(P, [[0.75, 0.25, 0.0]], atol=1e-15)


def attend_case():
    sm = instance(n=64, d=8, seed=2)
    Z = ck.scores(np.asarray(sm.Q), np.asarray(sm.K))
    gold_P, gold = ck.gold_support(np.asarray(sm.Q), np.asarray(sm.K), 1.5, False)
    pred = gold | ck.band_mask(64, 64, 3, False)
    pred[::7] = ck.band_mask(64, 64, 5, False)[::7]  # some rows not covered
    P = sa.sparse_attention_probs(sm, sa.AttentionGraph.from_dense(pred))
    return P, pred, Z, gold_P, gold


def test_attention_rows_accept_program_output():
    P, pred, Z, gold_P, gold = attend_case()
    covered = ck.check_attention_rows(P, pred, Z, 1.5, gold_P, gold)
    assert 0 < covered < P.shape[0]


def test_attention_rows_reject_perturbed_row():
    P, pred, Z, gold_P, gold = attend_case()
    i = int(np.flatnonzero(~np.any(gold & ~pred, axis=1))[0])
    j = int(np.flatnonzero(P[i])[0])
    P[i, j] += 1e-6
    with pytest.raises(ck.CheckFailed):
        ck.check_attention_rows(P, pred, Z, 1.5, gold_P, gold)


def test_attention_rows_reject_renormalised_perturbation():
    P, pred, Z, gold_P, gold = attend_case()
    nz = np.flatnonzero(P[0])
    P[0, nz[0]] += 1e-6
    P[0, nz[-1]] -= 1e-6  # still sums to one
    with pytest.raises(ck.CheckFailed):
        ck.check_attention_rows(P, pred, Z, 1.5, gold_P, gold)


def test_attention_rows_reject_mass_outside_graph():
    P, pred, Z, gold_P, gold = attend_case()
    i, j = np.argwhere(~pred)[0]
    P[i, j] = 1e-12
    with pytest.raises(ck.CheckFailed):
        ck.check_attention_rows(P, pred, Z, 1.5, gold_P, gold)


def test_recall_and_sparsity_by_edge_sets():
    gold = {(0, 0), (1, 0), (1, 1)}
    pred = {(0, 0), (1, 1), (0, 1)}
    assert ck.recall(pred, gold) == pytest.approx(2 / 3)
    assert ck.sparsity(pred, 2, 2, causal=False) == pytest.approx(0.25)
    assert ck.sparsity({(0, 0)}, 2, 2, causal=True) == pytest.approx(2 / 3)
    # a gold edge dropped from the prediction lowers recall
    assert ck.recall(pred - {(1, 1)}, gold) < ck.recall(pred, gold)


def test_program_recall_agrees_with_edge_sets():
    sm = instance(seed=3)
    P, support = ck.gold_support(np.asarray(sm.Q), np.asarray(sm.K), 1.5, False)
    gold = sa.extract_graph(sm)
    assert ck.edge_set(gold.to_dense()) == ck.edge_set(support)
    pred = sa.window_global_graph(48, 48, sa.PatternConfig(window=5))
    pset, gset = ck.edge_set(pred.to_dense()), ck.edge_set(support)
    assert ck.recall(pset, gset) == pytest.approx(sa.recall(pred, gold), abs=1e-15)
    assert ck.sparsity(pset, 48, 48, False) == pytest.approx(sa.sparsity(pred), abs=1e-15)


def gold_case(alpha=1.25):
    sm = instance(n=64, d=16, seed=4)
    P, support = ck.gold_support(np.asarray(sm.Q), np.asarray(sm.K), alpha, False)
    G = sa.extract_graph(sm, sa.EntmaxParams(alpha=alpha)).to_dense()
    return G, P, support


def test_gold_graph_accepts_program_gold():
    G, P, support = gold_case()
    ck.check_gold_graph(G, P, support)


def test_gold_graph_rejects_dropped_edge():
    G, P, support = gold_case()
    i, j = np.argwhere(G)[0]
    G[i, j] = False
    with pytest.raises(ck.CheckFailed):
        ck.check_gold_graph(G, P, support)


def test_gold_graph_rejects_extra_edge():
    G, P, support = gold_case()
    i, j = np.argwhere(~support)[0]
    G[i, j] = True
    with pytest.raises(ck.CheckFailed):
        ck.check_gold_graph(G, P, support)


def test_gold_graph_exempts_only_entries_below_the_floor():
    G, P, support = gold_case()
    below = support & (P <= ck.PROB_FLOOR)
    ck.check_gold_graph(G & ~below, P, support)


def sweep_rows():
    return [
        ("a", "x=1", 0.9, 0.2), ("a", "x=1", 0.7, 0.4),
        ("a", "x=2", 0.5, 0.9), ("a", "x=2", 0.5, 0.7),
        ("a", "x=3", 0.6, 0.3), ("a", "x=3", 0.6, 0.3),
        ("b", "y=1", 0.1, 1.0), ("b", "y=1", 0.1, 1.0),
    ]


def frontier():
    """The program's frontier of sweep_rows(), as pareto.csv rows."""
    recs = []
    for i, (m, hp, s, r) in enumerate(sweep_rows()):
        key, val = hp.split("=")
        recs.append(sa.SweepRecord(m, {key: int(val)}, 0, i, s, r))
    fronts = sa.per_method_frontiers(recs)
    return [(method, "|".join(f"{k}={v}" for k, v in rec.hyperparams.items()),
             rec.sparsity, rec.recall)
            for method in sorted(fronts) for rec in fronts[method]]


def test_pareto_accepts_program_frontier():
    ck.check_pareto(sweep_rows(), frontier())


def test_pareto_rejects_removed_point():
    rows = frontier()
    assert len(rows) > 2
    with pytest.raises(ck.CheckFailed):
        ck.check_pareto(sweep_rows(), rows[1:])


def test_pareto_rejects_dominated_point():
    with pytest.raises(ck.CheckFailed):
        ck.check_pareto(sweep_rows(), frontier() + [("a", "x=3", 0.6, 0.3)])


def test_pareto_rejects_unsorted_rows():
    rows = frontier()
    a_rows = [r for r in rows if r[0] == "a"]
    with pytest.raises(ck.CheckFailed):
        ck.check_pareto(sweep_rows(), a_rows[::-1] + [r for r in rows if r[0] != "a"])


def test_lloyd_fixed_point_and_refit():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 6.0])
    C = sa.kmeans_fit(X, 2, sa.KMeansConfig(seed=0)).C
    ck.check_lloyd_fixed_point(X, np.asarray(C))
    ck.check_same(C, sa.kmeans_fit(X, 2, sa.KMeansConfig(seed=0)).C, "refit")
    moved = np.array(C)
    moved[0, 0] += 1e-6
    with pytest.raises(ck.CheckFailed):
        ck.check_lloyd_fixed_point(X, moved)
    with pytest.raises(ck.CheckFailed):
        ck.check_same(moved, C, "refit")
    with pytest.raises(ck.CheckFailed):
        ck.check_same(C[:1], C, "refit")


def test_predicted_graph_accepts_program_graph_and_rejects_flipped_edge():
    rng = np.random.default_rng(8)
    sm = instance(n=40, d=6, seed=8)
    head = sa.ProjectionHead(rng.normal(size=(3, 6)), rng.normal(size=3))
    C = rng.normal(size=(5, 3))
    qa, ka = sa.cluster_qk(sa.project_rows(head, sm.Q), sa.project_rows(head, sm.K),
                           sa.Centroids(C), 2)
    G = sa.combine_with_patterns(sa.buckets_to_graph(qa, ka),
                                 sa.PatternConfig(window=5)).to_dense()
    Qp = np.asarray(sm.Q) @ head.W.T + head.b
    Kp = np.asarray(sm.K) @ head.W.T + head.b
    pred = ck.check_predicted_graph(G, Qp, Kp, C, 2, 5, False, "head")
    assert 0 < pred.sum() < pred.size
    for i, j in (np.argwhere(G)[0], np.argwhere(~G)[0]):
        flipped = G.copy()
        flipped[i, j] = not flipped[i, j]
        with pytest.raises(ck.CheckFailed):
            ck.check_predicted_graph(flipped, Qp, Kp, C, 2, 5, False, "head")


def sweep_case():
    """The program's window, distance and clustering records on two small
    causal instances, with the checker's inputs for them."""
    rng = np.random.default_rng(9)
    mats = [sa.ScoreMatrix(rng.normal(size=(24, 8)), rng.normal(size=(24, 8)), causal=True,
                           instance=i) for i in range(2)]
    W, b, C = rng.normal(size=(3, 8)), rng.normal(size=3), rng.normal(size=(4, 3))
    records = sa.run_sweep(
        mats, ["window", "distance", "clustering"],
        grids={"distance": {"t": [1.0, 2.0]}, "clustering": {"B": [4], "k": [1]}},
        pattern_grid=sa.PatternGrid(windows=(0, 3, 7)),
        artifacts=sa.SweepArtifacts(heads={(0, 0): sa.ProjectionHead(W, b)},
                                    centroids={(0, 0, 4): sa.Centroids(C)}))
    recs = [(r.method, dict(r.hyperparams), r.layer, r.head, r.sparsity, r.recall)
            for r in records]
    instances = [(np.asarray(sm.Q), np.asarray(sm.K), True)
                 + ck.floored_gold(np.asarray(sm.Q), np.asarray(sm.K), 1.5, True) for sm in mats]
    return mats, recs, instances, W, b, C


def test_sweep_records_accept_program_and_reject_nudged_values():
    _, recs, instances, W, b, C = sweep_case()
    assert {m for m, *_ in recs} == {"window", "distance", "clustering"}
    for m, params, _, _, s, r in recs:
        ck.check_sweep_record((m, params, s, r), instances, W, b, C)
        with pytest.raises(ck.CheckFailed):
            ck.check_sweep_record((m, params, s, r + 1e-6), instances, W, b, C)
        with pytest.raises(ck.CheckFailed):
            ck.check_sweep_record((m, params, s - 1e-6, r), instances, W, b, C)


def test_window_monotone_rejects_falling_recall():
    _, recs, _, _, _, _ = sweep_case()
    assert ck.check_window_monotone(recs, ("window", "distance", "clustering")) == 4
    i = next(i for i, rec in enumerate(recs)
             if rec[0] == "window" and rec[1]["window"] == 7)
    m, params, layer, head, s, r = recs[i]
    assert r > 0
    with pytest.raises(ck.CheckFailed):
        ck.check_window_monotone(recs[:i] + [(m, params, layer, head, s, 0.0)] + recs[i + 1:],
                                 ("window",))
    with pytest.raises(ck.CheckFailed):
        ck.check_window_monotone(recs[:i] + [(m, params, layer, head, 1.0, r)] + recs[i + 1:],
                                 ("window",))


def test_gold_sparsity_accepts_program_and_rejects_nudged_value():
    mats, _, instances, _, _, _ = sweep_case()
    golds = [(edges, amb, Q.shape[0], K.shape[0], causal)
             for Q, K, causal, edges, amb in instances]
    reported = sa.gold_sparsity_of(mats)
    ck.check_gold_sparsity(reported, golds, "summary.json")
    with pytest.raises(ck.CheckFailed):
        ck.check_gold_sparsity(reported + 1e-6, golds, "summary.json")


def test_readers_round_trip_and_reject_bad_headers(tmp_path):
    g = sa.extract_graph(instance(n=16, d=4, seed=6, causal=True))
    path = tmp_path / "g.txt"
    sa.write_graph(g, path)
    n, m, causal, edges = ck.read_graph(path)
    assert (n, m, causal) == (16, 16, True) and edges == ck.edge_set(g.to_dense())
    lines = path.read_text().splitlines()
    head = lines[0].split()
    head[3] = str(int(head[3]) + 1)
    path.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n")
    with pytest.raises(ck.CheckFailed):
        ck.read_graph(path)

    X = np.random.default_rng(7).normal(size=(3, 5))
    sa.write_tensor(X, tmp_path / "t.txt")
    assert np.array_equal(ck.read_tensor(tmp_path / "t.txt"), X)
    (tmp_path / "t.txt").write_text("TENSOR 4 5\n" + "\n".join(
        (tmp_path / "t.txt").read_text().splitlines()[1:]) + "\n")
    with pytest.raises(ck.CheckFailed):
        ck.read_tensor(tmp_path / "t.txt")


def test_identical_output_digests():
    require_one_digest(["a", "a"], "op")
    with pytest.raises(ck.CheckFailed):
        require_one_digest(["a", "b"], "op")
