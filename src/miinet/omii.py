"""oMII engine: greedy discovery, single-pass removal and the shuffle test.

Per-target inference is independent across targets and deterministic:
shuffle permutations derive from (seed, i, j, K, shuffle index), so serial
and parallel runs agree. Both families share one numeric path: a family's
CMI given |K| = k is the Gaussian CMI plus the constant delta(k), so the
Gaussian nulls shifted by delta(k) are the family's nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeSeriesMatrix
from .errors import MiinetError, NetworkInferenceError
from .estimators import Family, cmi_offset, conditional_mutual_information
from .seeding import derive_seed

_SHUFFLE_BLOCK = 128  # permuted-column block size, bounds memory at T x block


@dataclass(frozen=True)
class OmiiConfig:
    """Estimator family, shuffle-test level theta, shuffle count and seed."""

    family: Family
    theta: float = 0.1
    n_shuffles: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must be strictly inside (0, 1)")
        if self.n_shuffles < 1:
            raise ValueError("n_shuffles must be >= 1")

    @property
    def threshold_rank(self) -> int:
        """Ascending-order rank of the shuffle threshold, clamped to [1, Ns]."""
        rank = math.floor((1.0 - self.theta) * self.n_shuffles)
        return min(max(rank, 1), self.n_shuffles)


@dataclass(frozen=True)
class ShuffleTestResult:
    passed: bool
    cmi: float
    threshold: float


@dataclass(frozen=True)
class ParentSet:
    """Discovered direct parents of one target, in admission order."""

    target: int
    parents: tuple[int, ...]
    cmi_at_admission: tuple[float, ...]
    thresholds: tuple[float, ...]

    def __post_init__(self):
        if self.target in self.parents:
            raise ValueError("target cannot be its own parent")
        if len(set(self.parents)) != len(self.parents):
            raise ValueError("duplicate parents")
        if not (len(self.parents) == len(self.cmi_at_admission) == len(self.thresholds)):
            raise ValueError("parents/diagnostics length mismatch")


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    weight: float
    threshold: float


@dataclass(frozen=True)
class InteractionNetwork:
    """Directed graph over channels; edge weight is the CMI at admission."""

    nodes: tuple[int, ...]
    node_names: tuple[str, ...]
    edges: tuple[Edge, ...]
    metadata: dict

    def edge_set(self) -> set[tuple[int, int]]:
        return {(e.source, e.target) for e in self.edges}

    def skeleton(self) -> set[frozenset[int]]:
        return {frozenset((e.source, e.target)) for e in self.edges}


def _permutation(cfg: OmiiConfig, i: int, j: int, cond: tuple[int, ...], ell: int, t: int):
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle-perm", i, j, cond, ell))
    return rng.permutation(t)


def _null_cmis(
    x: TimeSeriesMatrix, i: int, j: int, cond: tuple[int, ...], cfg: OmiiConfig
) -> np.ndarray:
    """Gaussian CMI for every shuffled copy of channel j, batched."""
    data = x.data
    t = data.shape[0]
    k = len(cond)
    y = data[:, (i, *cond)] - data[:, (i, *cond)].mean(axis=0)
    cj = data[:, j] - data[:, j].mean()
    s_ik = y.T @ y / (t - 1)
    var_j = float(cj @ cj) / (t - 1)
    ld_ik = np.linalg.slogdet(s_ik)[1]
    ld_k = np.linalg.slogdet(s_ik[1:, 1:])[1] if k else 0.0

    nulls = np.empty(cfg.n_shuffles)
    for start in range(0, cfg.n_shuffles, _SHUFFLE_BLOCK):
        block = range(start, min(start + _SHUFFLE_BLOCK, cfg.n_shuffles))
        perms = np.stack([_permutation(cfg, i, j, cond, ell, t) for ell in block])
        p = cj[perms]  # (B, T)
        cross = p @ y / (t - 1)  # (B, 1+k): [:, 0] cov(j', i); [:, 1:] cov(j', K)
        b = len(block)
        sig_jk = np.empty((b, 1 + k, 1 + k))
        sig_jk[:, 0, 0] = var_j
        sig_jk[:, 0, 1:] = cross[:, 1:]
        sig_jk[:, 1:, 0] = cross[:, 1:]
        sig_jk[:, 1:, 1:] = s_ik[1:, 1:]
        sig_ijk = np.empty((b, 2 + k, 2 + k))
        sig_ijk[:, 0, 0] = s_ik[0, 0]
        sig_ijk[:, 0, 1] = cross[:, 0]
        sig_ijk[:, 1, 0] = cross[:, 0]
        sig_ijk[:, 1, 1] = var_j
        sig_ijk[:, 0, 2:] = s_ik[0, 1:]
        sig_ijk[:, 2:, 0] = s_ik[1:, 0][None, :]
        sig_ijk[:, 1, 2:] = cross[:, 1:]
        sig_ijk[:, 2:, 1] = cross[:, 1:]
        sig_ijk[:, 2:, 2:] = s_ik[1:, 1:]
        ld_jk = np.linalg.slogdet(sig_jk)[1]
        ld_ijk = np.linalg.slogdet(sig_ijk)[1]
        nulls[start : start + b] = 0.5 * ((ld_ik + ld_jk) - ld_k - ld_ijk)
    return nulls


def shuffle_test(
    x: TimeSeriesMatrix,
    i: int,
    j: int,
    cond: Sequence[int],
    cfg: OmiiConfig,
) -> ShuffleTestResult:
    """Permutation significance test of I(X_i; X_j | X_K).

    Only channel j is shuffled, Ns times; the threshold S is the
    floor((1-theta)*Ns)-th smallest null value and the test passes iff the
    actual CMI strictly exceeds S.
    """
    i, j = int(i), int(j)
    cond = tuple(sorted(int(c) for c in cond))
    if i == j:
        raise ValueError("i and j must differ")
    if j in cond or i in cond:
        raise ValueError("i and j must not be in the conditioning set")
    actual = conditional_mutual_information(x, i, j, cond, cfg.family)
    nulls = _null_cmis(x, i, j, cond, cfg) + cmi_offset(cfg.family, len(cond))
    threshold = float(np.sort(nulls)[cfg.threshold_rank - 1])
    return ShuffleTestResult(actual > threshold, actual, threshold)


def discover(x: TimeSeriesMatrix, i: int, cfg: OmiiConfig) -> ParentSet:
    """Greedy admission of the argmax-CMI candidate while the shuffle test passes.

    Ties in the argmax break toward the lowest channel index.
    """
    i = int(i)
    if x.n_channels < 2:
        raise ValueError("need at least 2 channels")
    parents: list[int] = []
    values: list[float] = []
    thresholds: list[float] = []
    while True:
        candidates = [j for j in range(x.n_channels) if j != i and j not in parents]
        if not candidates:
            break
        cmis = {
            j: conditional_mutual_information(x, i, j, parents, cfg.family)
            for j in candidates
        }
        best = max(candidates, key=lambda j: (cmis[j], -j))
        result = shuffle_test(x, i, best, parents, cfg)
        if not result.passed:
            break
        parents.append(best)
        values.append(result.cmi)
        thresholds.append(result.threshold)
    return ParentSet(i, tuple(parents), tuple(values), tuple(thresholds))


def remove(x: TimeSeriesMatrix, i: int, discovered: ParentSet, cfg: OmiiConfig) -> ParentSet:
    """Single pass in admission order: drop j when the test on K\\{j} fails.

    The conditioning set shrinks as parents are removed within the pass.
    """
    i = int(i)
    if discovered.target != i:
        raise ValueError("parent set belongs to a different target")
    kept = list(discovered.parents)
    for j in discovered.parents:
        rest = [p for p in kept if p != j]
        result = shuffle_test(x, i, j, rest, cfg)
        if not result.passed:
            kept.remove(j)
    keep_mask = [p in kept for p in discovered.parents]
    return ParentSet(
        i,
        tuple(p for p, m in zip(discovered.parents, keep_mask) if m),
        tuple(v for v, m in zip(discovered.cmi_at_admission, keep_mask) if m),
        tuple(s for s, m in zip(discovered.thresholds, keep_mask) if m),
    )


def infer_network(x: TimeSeriesMatrix, cfg: OmiiConfig, metadata: dict | None = None) -> InteractionNetwork:
    """Discovery then removal for every channel; edges run parent -> target."""
    edges: list[Edge] = []
    failures: list[tuple[int, Exception]] = []
    for i in range(x.n_channels):
        try:
            pruned = remove(x, i, discover(x, i, cfg), cfg)
        except MiinetError as exc:  # aggregate, never silently partial
            failures.append((i, exc))
            continue
        for parent, value, thr in zip(
            pruned.parents, pruned.cmi_at_admission, pruned.thresholds
        ):
            edges.append(Edge(parent, i, value, thr))
    if failures:
        raise NetworkInferenceError(failures)
    meta = {
        "theta": cfg.theta,
        "n_shuffles": cfg.n_shuffles,
        "seed": cfg.seed,
        "estimator_family": cfg.family.value,
    }
    if metadata:
        meta.update(metadata)
    return InteractionNetwork(
        tuple(range(x.n_channels)),
        tuple(ch.name for ch in x.channels),
        tuple(edges),
        meta,
    )


@dataclass(frozen=True)
class DegreeDistribution:
    """P(in-degree = k) and P(out-degree = k) over nodes, k = 0..max."""

    in_probs: tuple[float, ...]
    out_probs: tuple[float, ...]


def degree_distribution(net: InteractionNetwork) -> DegreeDistribution:
    n = len(net.nodes)
    indeg = {node: 0 for node in net.nodes}
    outdeg = {node: 0 for node in net.nodes}
    for e in net.edges:
        outdeg[e.source] += 1
        indeg[e.target] += 1
    max_deg = max([*indeg.values(), *outdeg.values(), 0])
    in_counts = np.bincount(list(indeg.values()), minlength=max_deg + 1)
    out_counts = np.bincount(list(outdeg.values()), minlength=max_deg + 1)
    return DegreeDistribution(
        tuple((in_counts / n).tolist()), tuple((out_counts / n).tolist())
    )
