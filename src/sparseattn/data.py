"""Synthetic instance generation and the portable tensor file format.

Generators produce desk-scale query/key matrices whose entmax graphs have
exploitable structure: ``gaussian-mixture`` draws tokens around shared
latent cluster centers (so attention concentrates within clusters), and
``low-rank`` draws Q and K as rank-limited products.  :func:`save_qk` and
:func:`load_qk` write and read them as a manifest of tensor files.
"""

import os
from dataclasses import dataclass

import numpy as np

from ._textio import index_entries, read_json, read_rows, write_json, write_rows
from .errors import ConfigError, DataError
from .graph import ScoreMatrix

GENERATORS = ("gaussian-mixture", "low-rank")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 32
    m: int = 32
    d: int = 16
    generator: str = "gaussian-mixture"
    num_heads: int = 1
    num_instances: int = 1
    causal: bool = False
    seed: int = 0
    num_clusters: int = 4
    cluster_std: float = 0.25
    center_scale: float = 1.0
    rank: int = 4

    def __post_init__(self):
        if min(self.n, self.m, self.d, self.num_heads, self.num_instances) < 1:
            raise ConfigError("sizes and counts must be positive")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}; choose from {GENERATORS}")
        if self.num_clusters < 1 or self.rank < 1:
            raise ConfigError("num_clusters and rank must be >= 1")
        if self.causal and self.n != self.m:
            raise ConfigError("causal instances require n == m")


def _gaussian_mixture(spec: SyntheticSpec, rng) -> tuple:
    centers = rng.normal(scale=spec.center_scale, size=(spec.num_clusters, spec.d))
    cq = rng.integers(spec.num_clusters, size=spec.n)
    ck = rng.integers(spec.num_clusters, size=spec.m)
    Q = centers[cq] + rng.normal(scale=spec.cluster_std, size=(spec.n, spec.d))
    K = centers[ck] + rng.normal(scale=spec.cluster_std, size=(spec.m, spec.d))
    return Q, K


def _low_rank(spec: SyntheticSpec, rng) -> tuple:
    rank = min(spec.rank, spec.d)
    Q = rng.normal(size=(spec.n, rank)) @ rng.normal(size=(rank, spec.d)) / np.sqrt(rank)
    K = rng.normal(size=(spec.m, rank)) @ rng.normal(size=(rank, spec.d)) / np.sqrt(rank)
    return Q, K


def generate_instances(spec: SyntheticSpec):
    """Deterministic list of ScoreMatrix instances (num_instances x num_heads)."""
    rng = np.random.default_rng(spec.seed)
    make = _gaussian_mixture if spec.generator == "gaussian-mixture" else _low_rank
    out = []
    for inst in range(spec.num_instances):
        for h in range(spec.num_heads):
            Q, K = make(spec, rng)
            out.append(
                ScoreMatrix(Q, K, causal=spec.causal, layer=0, head=h, instance=inst)
            )
    return out


# ---------------------------------------------------------------------------
# Portable tensor format: one matrix per file, "TENSOR n d" header then n
# rows of d ASCII floats; a JSON manifest pairs Q and K files per head.


def write_tensor(arr, path):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("tensor files hold 2-D matrices")
    write_rows(path, ("TENSOR",) + arr.shape, arr)


def read_tensor(path) -> np.ndarray:
    (n, d), out = read_rows(path, ("n", "d"), lambda n, d: (n, d), keyword="TENSOR")
    if n < 1 or d < 1:
        raise DataError(f"{path}:1: sizes must be positive")
    if not np.all(np.isfinite(out)):
        bad = int(np.argwhere(~np.isfinite(out))[0][0]) + 2
        raise DataError(f"{path}:{bad}: non-finite value")
    return out


def save_qk(matrices, out_dir) -> str:
    """Write every matrix pair plus ``manifest.json``; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for sm in matrices:
        stem = f"l{sm.layer}_h{sm.head}_i{sm.instance}"
        for role, arr in (("Q", sm.Q), ("K", sm.K)):
            fname = f"{stem}_{role.lower()}.txt"
            write_tensor(arr, os.path.join(out_dir, fname))
            entries.append(
                {
                    "layer": sm.layer,
                    "head": sm.head,
                    "instance": sm.instance,
                    "role": role,
                    "path": fname,
                    "causal": sm.causal,
                }
            )
    manifest = os.path.join(out_dir, "manifest.json")
    write_json(manifest, {"matrices": entries})
    return manifest


def load_qk(path):
    """Load ScoreMatrix instances from a manifest (or a directory holding one)."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    base = os.path.dirname(path)
    slots = {}
    for key, entry in index_entries(read_json(path), "matrices", path):
        role = entry.get("role")
        causal = entry.get("causal")
        if not isinstance(causal, bool):
            raise DataError(f"{path}: causal must be true or false, got {causal!r}")
        if role not in ("Q", "K"):
            raise DataError(f"{path}: role must be 'Q' or 'K', got {role!r}")
        slot = slots.setdefault(key, {"causal": causal})
        if slot["causal"] != causal:
            raise DataError(f"{path}: conflicting causal flags for {key}")
        if role in slot:
            raise DataError(f"{path}: duplicate {role} entry for {key}")
        slot[role] = read_tensor(os.path.join(base, entry["path"]))
    out = []
    for key in sorted(slots):
        slot = slots[key]
        if "Q" not in slot or "K" not in slot:
            raise DataError(f"{path}: head {key} is missing its Q or K matrix")
        layer, head, instance = key
        try:
            out.append(
                ScoreMatrix(
                    slot["Q"], slot["K"], causal=slot["causal"],
                    layer=layer, head=head, instance=instance,
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}: head {key}: {exc}") from None
    return out
