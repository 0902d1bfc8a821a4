"""The benchmark's three workloads.

Each workload is a closed loop run by one caller in one process: the next
operation starts when the previous one returns.  A workload provides

- ``setup()``: everything before the timed phase (timed as ``setup_s``);
- ``setup_reps``: how many times ``setup()`` runs; ``setup_s`` is their
  median;
- ``round()``: the operations of one round, each a callable that returns
  its output;
- ``record(i, output)``: keeps a digest of operation i's output (outside
  the timed region);
- ``check()``: checks every operation's output against computations made
  apart from the program, and returns the quality metrics and facts for
  the run record.

Only public names are used: ``sparseattn.*`` functions and
``sparseattn.cli.main`` run in-process.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import checks as ck
from checks import require


def derived_seeds(seed, count):
    """``count`` independent 31-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % (2**31 - 1)]


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_cli(sa, argv):
    """``sparseattn.cli.main`` in-process with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sa.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sparseattn {' '.join(argv)} exited with {code}")
    return out.getvalue()


def require_one_digest(digests, what):
    require(len(set(digests)) == 1, f"{what}: operations with the same inputs wrote different outputs")


# ---------------------------------------------------------------------------


class Attend:
    """One encoder head's predicted-sparse attention call."""

    name = "attend"
    setup_reps = 9
    n, d, heads, clusters = 1024, 64, 16, 64
    train_n, train_instances = 128, 8
    r, B, k, window, alpha = 4, 32, 2, 15, 1.5

    def __init__(self, sa, seed, workdir):
        self.sa = sa
        self.seeds = derived_seeds(seed, 2)
        self.outputs = {}

    def setup(self):
        sa = self.sa
        train = sa.generate_instances(sa.SyntheticSpec(
            n=self.train_n, m=self.train_n, d=self.d, num_instances=self.train_instances,
            num_clusters=self.clusters, seed=self.seeds[0]))
        golds = [sa.extract_graph(sm) for sm in train]
        ds = sa.build_pair_dataset(train, golds, rng_seed=self.seeds[0], min_len=1)
        self.head = sa.train_projection(ds, sa.TrainConfig(rng_seed=self.seeds[0]), r=self.r)
        pooled = np.vstack([sa.project_rows(self.head, X) for sm in train for X in (sm.Q, sm.K)])
        self.centroids = sa.kmeans_fit(pooled, self.B, sa.KMeansConfig(seed=self.seeds[0]))
        self.instances = sa.generate_instances(sa.SyntheticSpec(
            n=self.n, m=self.n, d=self.d, num_instances=self.heads,
            num_clusters=self.clusters, seed=self.seeds[1]))
        self.pattern = sa.PatternConfig(window=self.window)

    def attend(self, sm):
        sa = self.sa
        Qp = sa.project_rows(self.head, sm.Q)
        Kp = sa.project_rows(self.head, sm.K)
        qa, ka = sa.cluster_qk(Qp, Kp, self.centroids, self.k)
        graph = sa.combine_with_patterns(sa.buckets_to_graph(qa, ka), self.pattern)
        return graph, sa.sparse_attention_probs(sm, graph)

    def round(self):
        return [lambda sm=sm: self.attend(sm) for sm in self.instances]

    def _digest(self, output):
        graph, P = output
        return hashlib.sha256(graph.edges.tobytes() + P.tobytes()).hexdigest()

    def record(self, i, output):
        self.outputs.setdefault(i % self.heads, []).append(self._digest(output))

    def check(self):
        """Re-run each head once, require the timed operations' digests to
        match it, and check that output in full."""
        recalls, sparsities, useful, covered = [], [], [], 0
        for h, sm in enumerate(self.instances):
            output = self.attend(sm)
            digests = self.outputs.get(h, [])
            require_one_digest(digests + [self._digest(output)], f"head {h}")
            graph, P = output
            Q, K = np.asarray(sm.Q), np.asarray(sm.K)
            W, b = np.asarray(self.head.W), np.asarray(self.head.b)
            pred = ck.check_predicted_graph(graph.to_dense(), Q @ W.T + b, K @ W.T + b,
                                            np.asarray(self.centroids.C), self.k,
                                            self.window, False, f"head {h}")
            gold_P, gold = ck.gold_support(Q, K, self.alpha, False)
            covered += ck.check_attention_rows(P, pred, ck.scores(Q, K), self.alpha, gold_P, gold)
            pred_set, gold_set = ck.edge_set(pred), ck.edge_set(gold)
            recalls.append(ck.recall(pred_set, gold_set))
            sparsities.append(ck.sparsity(pred_set, self.n, self.n, False))
            useful.append(len(pred_set & gold_set) / len(pred_set))
        return {
            "recall": float(np.mean(recalls)),
            "sparsity": float(np.mean(sparsities)),
            "useful_cell_ratio": float(np.mean(useful)),
            "facts": {"heads": self.heads, "covered_rows": covered,
                      "rows": self.heads * self.n,
                      "dense_score_flops": self.sa.dense_score_flops(self.n, self.n, self.d)},
        }

    def reference(self, count):
        """Dense ``attention_probs`` on the first ``count`` heads (not an
        operation): the base of the efficiency ratio."""
        times = []
        for sm in self.instances[:count]:
            t0 = time.perf_counter()
            self.sa.attention_probs(sm)
            times.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(times))


# ---------------------------------------------------------------------------


SWEEP_CONFIG = {
    "n": 128, "d": 32, "num_instances": 8, "num_heads": 2, "num_clusters": 4,
    "B_list": [4, 8],
    "methods": ["window", "distance", "quantization", "clustering", "routing", "lsh",
                "bigbird", "longformer"],
    "grids": {
        "distance": {"t": [1.0, 2.0]},
        "quantization": {"beta": [2, 4]},
        "clustering": {"B": [4, 8], "k": [1]},
        "routing": {"c": [4, 8]},
        "lsh": {"num_buckets": [4, 8], "rounds": [1]},
        "bigbird": {"num_blocks": [4, 8]},
        "longformer": {"num_globals": [2, 4]},
    },
    "windows": [0, 3, 7],
}
# Methods whose prediction does not depend on the RNG: their recall can
# only grow with the window.
DETERMINISTIC = ("window", "distance", "quantization", "clustering", "routing")


class Sweep:
    """``sparseattn sweep`` at the reference config, causal, alpha 1.5."""

    name = "sweep"
    setup_reps = 3
    output_files = ("sweep.csv", "pareto.csv", "summary.json")

    def __init__(self, sa, seed, workdir):
        self.sa = sa
        self.seed = derived_seeds(seed, 1)[0]
        self.exp = os.path.join(workdir, "sweep")
        self.cfg = os.path.join(workdir, "sweep.json")
        self.common = ["--out", self.exp, "--config", self.cfg, "--seed", str(self.seed),
                       "--causal", "--alpha", "1.5"]
        self.digests = []

    def setup(self):
        shutil.rmtree(self.exp, ignore_errors=True)
        with open(self.cfg, "w", encoding="ascii") as fh:
            json.dump(SWEEP_CONFIG, fh)
        for stage in ("gen", "extract", "train-proj", "fit-kmeans"):
            run_cli(self.sa, [stage] + self.common)

    def round(self):
        return [lambda: run_cli(self.sa, ["sweep", "--workers", "1"] + self.common)]

    def record(self, i, output):
        self.digests.append(digest([os.path.join(self.exp, f) for f in self.output_files]))

    def check(self):
        require_one_digest(self.digests, "sweep")
        exp = self.exp
        header, rows = ck.read_csv(os.path.join(exp, "sweep.csv"))
        require(header[:6] == ["method", "hyperparams", "layer", "head", "sparsity", "recall"],
                f"unexpected sweep.csv header {header}")
        recs = [(r[0], ck.parse_hp(r[1]), int(r[2]), int(r[3]), float(r[4]), float(r[5]))
                for r in rows]
        expected_cells = 3 + 7 * 2 * 3
        require(len(recs) == expected_cells * 2, f"sweep.csv holds {len(recs)} records")
        _, prows = ck.read_csv(os.path.join(exp, "pareto.csv"))
        ck.check_pareto([(r[0], r[1], float(r[4]), float(r[5])) for r in rows],
                        [(p[0], p[1], float(p[2]), float(p[3])) for p in prows])
        ck.check_window_monotone(recs, DETERMINISTIC)

        # gold graphs and window, distance and clustering records from edge sets
        data = ck.read_manifest(os.path.join(exp, "data"))
        golds = {key: ck.floored_gold(Q, K, 1.5, causal) for key, (Q, K, causal) in data.items()}
        with open(os.path.join(exp, "summary.json"), "r", encoding="ascii") as fh:
            summary = json.load(fh)
        ck.check_gold_sparsity(summary["gold_sparsity"],
                               [golds[key] + (Q.shape[0], K.shape[0], causal)
                                for key, (Q, K, causal) in data.items()], "summary.json")
        require(set(summary["methods"]) == set(SWEEP_CONFIG["methods"]),
                "summary.json does not list every method")
        checked = 0
        for m, params, layer, head, s, r in recs:
            if m not in ("window", "distance", "clustering"):
                continue
            W, b = ck.read_head(os.path.join(exp, "proj", f"head_l{layer}_h{head}.txt"))
            C = ck.read_centroids(os.path.join(
                exp, "kmeans", f"c_l{layer}_h{head}_B{params['B']}.txt")) if m == "clustering" else None
            instances = [(Q, K, causal) + golds[key] for key, (Q, K, causal) in data.items()
                         if key[:2] == (layer, head)]
            ck.check_sweep_record((m, params, s, r), instances, W, b, C)
            checked += 1
        return {
            "recall": float(np.mean([r for *_, r in recs])),
            "sparsity": float(np.mean([s for *_, s, _ in recs])),
            "facts": {"records": len(recs), "records_recomputed": checked,
                      "pareto_points": len(prows)},
        }


# ---------------------------------------------------------------------------


FIT_CONFIG = {"n": 64, "d": 32, "num_instances": 8, "num_heads": 2, "num_clusters": 4,
              "B_list": [4, 8], "r": 4}


class Fit:
    """``extract``, ``train-proj`` and ``fit-kmeans`` at alpha 1.25."""

    name = "fit"
    setup_reps = 25
    alpha = 1.25
    heldout_instances = 256
    eval_B, eval_k = 8, 1

    def __init__(self, sa, seed, workdir):
        self.sa = sa
        self.seed, self.heldout_seed = derived_seeds(seed, 2)
        self.exp = os.path.join(workdir, "fit")
        self.cfg = os.path.join(workdir, "fit.json")
        self.common = ["--out", self.exp, "--config", self.cfg, "--seed", str(self.seed),
                       "--alpha", str(self.alpha)]
        self.digests = []

    def setup(self):
        sa = self.sa
        shutil.rmtree(self.exp, ignore_errors=True)
        with open(self.cfg, "w", encoding="ascii") as fh:
            json.dump(FIT_CONFIG, fh)
        run_cli(sa, ["gen"] + self.common)

    def round(self):
        def op():
            for stage in ("extract", "train-proj", "fit-kmeans"):
                run_cli(self.sa, [stage] + self.common)
        return [op]

    def _outputs(self):
        return sorted(os.path.join(self.exp, sub, f) for sub in ("graphs", "proj", "kmeans")
                      for f in os.listdir(os.path.join(self.exp, sub)))

    def record(self, i, output):
        self.digests.append(digest(self._outputs()))

    def check(self):
        sa, exp = self.sa, self.exp
        require_one_digest(self.digests, "fit")
        data = ck.read_manifest(os.path.join(exp, "data"))
        mats = sa.load_qk(os.path.join(exp, "data"))
        params = sa.EntmaxParams(alpha=self.alpha)

        # gold graphs: threshold support, written and read back unchanged
        with open(os.path.join(exp, "graphs", "meta.json"), "r", encoding="ascii") as fh:
            meta = json.load(fh)
        require(meta["alpha"] == self.alpha, "meta.json records another alpha")
        dropped, written, golds = 0, [], []
        for sm, entry in zip(mats, meta["graphs"]):
            Q, K, causal = data[(entry["layer"], entry["head"], entry["instance"])]
            path = os.path.join(exp, "graphs", entry["path"])
            n, m, g_causal, edges = ck.read_graph(path)
            require((n, m, g_causal) == (Q.shape[0], K.shape[0], causal), f"{path}: wrong header")
            G = np.zeros((n, m), dtype=bool)
            if edges:
                G[tuple(np.array(sorted(edges)).T)] = True
            P, support = ck.gold_support(Q, K, self.alpha, causal)
            dropped += ck.check_gold_graph(G, P, support)
            obj = sa.extract_graph(sm, params)
            require(ck.edge_set(obj.to_dense()) == edges, f"{path}: differs from the graph written")
            require(sa.read_graph(path) == obj, f"{path}: reads back as another graph")
            written.append((edges, 0, n, m, causal))
            golds.append(obj)
        ck.check_gold_sparsity(meta["gold_sparsity"], written, "meta.json")

        # held-out instances are drawn here, after peak_rss_mb is read: only
        # the quality metrics use them
        heldout = sa.generate_instances(sa.SyntheticSpec(
            n=FIT_CONFIG["n"], m=FIT_CONFIG["n"], d=FIT_CONFIG["d"],
            num_instances=self.heldout_instances, num_clusters=FIT_CONFIG["num_clusters"],
            seed=self.heldout_seed))
        heldout_gold = [
            ck.edge_set(ck.gold_support(np.asarray(sm.Q), np.asarray(sm.K), self.alpha, False)[1])
            for sm in heldout]
        recalls, sps, pairs = [], [], 0
        for head in range(FIT_CONFIG["num_heads"]):
            group = [i for i, sm in enumerate(mats) if sm.head == head]
            QK = [data[(0, head, mats[i].instance)][:2] for i in group]
            r, s, p = self._check_head(head, [mats[i] for i in group], [golds[i] for i in group],
                                       QK, heldout, heldout_gold)
            recalls += r
            sps += s
            pairs += p
        return {
            "recall": float(np.mean(recalls)),
            "sparsity": float(np.mean(sps)),
            "facts": {"gold_graphs": len(meta["graphs"]), "pairs": pairs,
                      "threshold_entries_dropped_by_floor": dropped,
                      "heldout_instances": len(heldout)},
        }

    def _check_head(self, head, mats, golds, QK, heldout, heldout_gold):
        """Checkpoint and centroids of one head; recall and sparsity of its
        clustering predictor on the held-out instances."""
        sa, exp = self.sa, self.exp
        head_path = os.path.join(exp, "proj", f"head_l0_h{head}.txt")
        W, b = ck.read_head(head_path)
        ds = sa.build_pair_dataset(mats, golds, rng_seed=self.seed, min_len=21)
        trained = sa.train_projection(ds, sa.TrainConfig(rng_seed=self.seed), r=FIT_CONFIG["r"])
        ck.check_same(W, trained.W, f"{head_path} (trained W)")
        ck.check_same(b, trained.b, f"{head_path} (trained b)")
        loaded = sa.load_head(head_path)
        ck.check_same(loaded.W, W, f"{head_path} (W read back)")
        ck.check_same(loaded.b, b, f"{head_path} (b read back)")

        # centroids equal the fit, and sit at Lloyd's fixed point
        pooled = np.vstack([X @ W.T + b for Q, K in QK for X in (Q, K)])
        lib_pooled = np.vstack([sa.project_rows(loaded, X) for sm in mats for X in (sm.Q, sm.K)])
        cents = {}
        for B in FIT_CONFIG["B_list"]:
            path = os.path.join(exp, "kmeans", f"c_l0_h{head}_B{B}.txt")
            C = ck.read_centroids(path)
            fitted = sa.kmeans_fit(lib_pooled, B, sa.KMeansConfig(seed=self.seed))
            ck.check_same(C, fitted.C, f"{path} (fitted)")
            ck.check_same(sa.load_centroids(path).C, C, f"{path} (read back)")
            ck.check_lloyd_fixed_point(pooled, C)
            cents[B] = C

        # the clustering predictor built from this head and these centroids
        C = cents[self.eval_B]
        recalls, sps = [], []
        for sm, support in zip(heldout, heldout_gold):
            Q, K = np.asarray(sm.Q), np.asarray(sm.K)
            qa, ka = sa.cluster_qk(sa.project_rows(loaded, Q), sa.project_rows(loaded, K),
                                   sa.Centroids(C), self.eval_k)
            pred = ck.edge_set(ck.check_predicted_graph(
                sa.buckets_to_graph(qa, ka).to_dense(), Q @ W.T + b, K @ W.T + b, C,
                self.eval_k, 0, False, "held-out clustering graph"))
            recalls.append(ck.recall(pred, support))
            sps.append(ck.sparsity(pred, Q.shape[0], K.shape[0], False))
        return recalls, sps, len(ds)


WORKLOADS = {w.name: w for w in (Attend, Sweep, Fit)}
