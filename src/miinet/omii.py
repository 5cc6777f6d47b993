"""oMII engine: greedy discovery, single-pass removal and the shuffle test.

Per-target inference is independent across targets and deterministic: all
shuffle tests draw their nulls from one bank of permutations fixed by
(seed, Ns, T), so target order changes no result, and each test is still an
exact permutation test. Both families share one numeric path: a family's
CMI given |K| = k is the Gaussian CMI plus the constant delta(k), so the
Gaussian nulls shifted by delta(k) are the family's nulls. Every CMI is a
partial correlation given K from the matrix's one regularized covariance
(`gaussian_cmi`): one call scores all candidates of a discovery round, and
one call gives a shuffle test's nulls. Only j is shuffled, so the nulls need
just the covariances of j's Ns shuffled copies with (*K, i): columns of one
Ns x N table per (matrix, j, bank), built on first use, kept on the matrix
and sliced by every later test of j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeSeriesMatrix, as_integer
from .errors import MiinetError, NetworkInferenceError
from .estimators import Family, cmi_offset, conditional_mutual_information, gaussian_cmi
from .seeding import derive_seed


@dataclass(frozen=True)
class OmiiConfig:
    """Estimator family, shuffle-test level theta, shuffle count and seed."""

    family: Family
    theta: float = 0.1
    n_shuffles: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        for name in ("n_shuffles", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
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


@functools.lru_cache(maxsize=1)
def _permutations(seed: int, n_shuffles: int, t: int) -> np.ndarray:
    """The run's read-only (Ns, T) bank of permutations of 0..T-1."""
    rng = np.random.default_rng(derive_seed(seed, "shuffle-perm"))
    perms = np.stack([rng.permutation(t) for _ in range(n_shuffles)])
    perms.flags.writeable = False
    return perms


def _null_table(x: TimeSeriesMatrix, j: int, bank: np.ndarray) -> np.ndarray:
    """Read-only (Ns, N) covariances of channel j's Ns shuffled copies with every channel."""
    centered = x.data - x.data.mean(axis=0)
    table = centered[bank, j] @ centered / (x.n_samples - 1)
    table.flags.writeable = False
    return table


def _null_cmis(
    x: TimeSeriesMatrix, i: int, j: int, cond: tuple[int, ...], cfg: OmiiConfig
) -> np.ndarray:
    """Gaussian CMI for every shuffled copy of channel j, in one kernel call.

    The partners' cross-covariances with (*K, i) are columns of j's null table,
    built once per (matrix, j, bank) and sliced by every test of j; their
    variance is j's ridged diagonal entry, so the nulls read the same
    regularized covariance as the actual CMI.
    """
    bank = _permutations(cfg.seed, cfg.n_shuffles, x.n_samples)
    tables = x.null_tables(bank)
    if j not in tables:
        tables[j] = _null_table(x, j, bank)
    order = (*cond, i)
    cov = x.covariance
    return gaussian_cmi(cov[np.ix_(order, order)], tables[j][:, order], cov[j, j])


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
    cov = x.covariance
    candidates = [j for j in range(x.n_channels) if j != i]
    parents: list[int] = []
    values: list[float] = []
    thresholds: list[float] = []
    while candidates:
        order = (*sorted(parents), i)
        cmis = gaussian_cmi(
            cov[np.ix_(order, order)], cov[np.ix_(candidates, order)], cov.diagonal()[candidates]
        )
        best = candidates[int(np.argmax(cmis))]
        result = shuffle_test(x, i, best, parents, cfg)
        if not result.passed:
            break
        candidates.remove(best)
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
