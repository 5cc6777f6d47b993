"""oMII engine: greedy discovery, single-pass removal and the shuffle test.

oMII runs level-synchronously over its targets. At discovery round r every
unfinished target has r admitted parents K and N-1-r candidates, so the
(*K, i) covariance slices of all of them stack into one (A, r+1, r+1) array
that one Cholesky call factors. One kernel call (`gaussian_cmi`) on those
factors scores every target's candidates; a second gives each argmax
candidate j its shuffle test, with j's actual CMI given (*K, i) as row 0 and
its Ns nulls as the other rows. Removal step s tests every target's s-th
admitted parent given the target's kept set without it, with one
factorization and one kernel call per conditioning-set size. `discover`,
`remove` and `shuffle_test` are the one-target calls of the same functions. A
batch that fails fails every target it carried.

Each call builds one private design from the matrix: its regularized
covariance, T, the config, one bank of Ns permutations fixed by (seed, Ns, T),
and the centred columns. The bank holds the smallest unsigned type that holds
T - 1 (uint16 up to T = 65,536). Every shuffle test of the call takes its
nulls from that bank, so target order changes no result and each test is
still an exact permutation test. Only j is shuffled, so a test needs just the
covariances of j and of j's Ns shuffled copies with (*K, i): columns of one
(1 + Ns) x N row block per tested channel, cov[j] on top of j's null table,
built on j's first test and freed with the call. The table is gathered and
multiplied in ceil(Ns/N) near-equal blocks of at most N shuffles, so beside
the bank no temporary outgrows the centred columns. The nulls' variance is
j's ridged diagonal entry, so they read the same regularized covariance as
the actual CMI.

Both families share one numeric path: a family's CMI given |K| = k is the
Gaussian CMI plus the constant delta(k), and every test of a batch has the
same k, so the Gaussian values shifted by delta(k) are the family's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeSeriesMatrix, as_integer, channel_indices
from .errors import MiinetError, NetworkInferenceError
from .estimators import Family, check_condition_size, cholesky, cmi_offset, gaussian_cmi
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
class Edge:
    source: int
    target: int
    weight: float
    threshold: float


@dataclass(frozen=True)
class ParentSet:
    """Discovered direct parents of one target: edges parent -> target, in admission order.

    An edge's weight is its CMI at admission, its threshold that test's S.
    """

    target: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if any(e.target != self.target for e in self.edges):
            raise ValueError("every edge must point into the target")
        if self.target in self.parents:
            raise ValueError("target cannot be its own parent")
        if len(set(self.parents)) != len(self.parents):
            raise ValueError("duplicate parents")

    @property
    def parents(self) -> tuple[int, ...]:
        return tuple(e.source for e in self.edges)


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


def _permutations(seed: int, n_shuffles: int, t: int) -> np.ndarray:
    """A read-only (Ns, T) bank of permutations of 0..T-1, drawn from the seed.

    Entries take the smallest unsigned type that holds T - 1: uint16 up to
    T = 65,536, a quarter of `intp`.
    """
    rng = np.random.default_rng(derive_seed(seed, "shuffle-perm"))
    perms = np.empty((n_shuffles, t), dtype=np.min_scalar_type(t - 1))
    for row in perms:
        row[:] = rng.permutation(t)
    perms.flags.writeable = False
    return perms


def _null_table(centered: np.ndarray, j: int, bank: np.ndarray, out: np.ndarray) -> None:
    """Fill `out`, (Ns, N), with the covariances of j's Ns shuffled copies with every channel.

    j's column is gathered in ceil(Ns/N) near-equal blocks of at most N
    shuffles, so no gathered block, nor the intp copy of its indices, is
    larger than `centered`. Near-equal, not N and a remainder: a small last
    block takes another BLAS path, which can move the last bits of its rows.
    """
    column = centered[:, j].copy()
    n_shuffles = bank.shape[0]
    blocks = math.ceil(n_shuffles / centered.shape[1])
    for b in range(blocks):
        block = slice(b * n_shuffles // blocks, (b + 1) * n_shuffles // blocks)
        np.matmul(column.take(bank[block]), centered, out=out[block])
    out /= centered.shape[0] - 1


class _Design:
    """One oMII call's covariance, T, config, permutation bank and per-channel row blocks."""

    def __init__(self, x: TimeSeriesMatrix, cfg: OmiiConfig):
        self.cov, self.t, self.cfg = x.covariance, x.n_samples, cfg
        self.bank = _permutations(cfg.seed, cfg.n_shuffles, self.t)
        self.centered = x.data - x.data.mean(axis=0)
        self.rows: dict[int, np.ndarray] = {}

    def factor(self, orders: np.ndarray) -> np.ndarray:
        """The (A, m, m) Cholesky factors of cov[order, order] over the rows of `orders`."""
        return cholesky(self.cov[orders[:, :, None], orders[:, None, :]])

    def cmis(self, orders: np.ndarray, partners: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """Gaussian I(i_a; j_a | K_a) and its Ns shuffled nulls for a batch of tests, (A, 1 + Ns).

        Row a of `orders` is (*K_a, i_a), `partners[a]` is j_a, and `factor` is
        `self.factor(orders)`; every K_a has the same size. Column 0 is j_a's
        actual CMI given (*K_a, i_a), the other columns its shuffled copies'.
        """
        for j in partners.tolist():
            if j not in self.rows:
                rows = np.empty((1 + self.bank.shape[0], self.cov.shape[0]))
                rows[0] = self.cov[j]
                _null_table(self.centered, j, self.bank, rows[1:])
                self.rows[j] = rows
        block = np.stack([self.rows[j][:, order] for j, order in zip(partners.tolist(), orders)])
        return gaussian_cmi(factor, block, self.cov[partners, partners][:, None])


def _shuffle_tests(
    design: _Design, orders: np.ndarray, partners: np.ndarray, factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass flags, actual CMIs and thresholds of a batch of `design.cmis`, family values.

    A test passes iff its actual CMI strictly exceeds the
    floor((1-theta)*Ns)-th smallest of its nulls.
    """
    k = orders.shape[1] - 1
    check_condition_size(k, design.t)
    cmis = design.cmis(orders, partners, factor) + cmi_offset(design.cfg.family, k)
    actual = cmis[:, 0]
    thresholds = np.sort(cmis[:, 1:], axis=1)[:, design.cfg.threshold_rank - 1]
    return actual > thresholds, actual, thresholds


def _discover(
    design: _Design, targets: Sequence[int]
) -> tuple[list[ParentSet], list[tuple[int, Exception]]]:
    """Discovery for every target at once, one stacked round at a time.

    Ties in a target's argmax break toward the lowest channel index.
    """
    cov = design.cov
    n = cov.shape[0]
    if n < 2:
        raise ValueError("need at least 2 channels")
    found: dict[int, list[Edge]] = {i: [] for i in targets}
    failures: list[tuple[int, Exception]] = []
    active = np.array(list(found), dtype=np.intp)
    conds = np.empty((active.size, 0), dtype=np.intp)  # each active target's sorted parents
    for r in range(n - 1):
        if not active.size:
            break
        orders = np.column_stack((conds, active))
        index = np.arange(active.size)
        mask = np.ones((active.size, n), dtype=bool)
        mask[index[:, None], orders] = False
        candidates = np.nonzero(mask)[1].reshape(active.size, n - 1 - r)
        try:
            factor = design.factor(orders)
            cmis = gaussian_cmi(
                factor, cov[candidates[:, :, None], orders[:, None, :]], cov.diagonal()[candidates]
            )
            best = candidates[index, np.argmax(cmis, axis=1)]
            passed, actual, thresholds = _shuffle_tests(design, orders, best, factor)
        except MiinetError as exc:  # the batch fails every target it carried
            for i in active.tolist():
                failures.append((i, exc))
                del found[i]
            break
        for i, j, value, threshold in zip(
            active[passed].tolist(), best[passed].tolist(),
            actual[passed].tolist(), thresholds[passed].tolist(),
        ):
            found[i].append(Edge(j, i, value, threshold))
        active = active[passed]
        conds = np.sort(np.column_stack((conds[passed], best[passed])), axis=1)
    return [ParentSet(i, tuple(edges)) for i, edges in found.items()], failures


def _remove(
    design: _Design, discovered: Sequence[ParentSet]
) -> tuple[list[ParentSet], list[tuple[int, Exception]]]:
    """Removal for every target at once, one admission step at a time.

    Step s tests each target's s-th admitted parent j given its kept set
    without j, and drops j when the test fails; the kept set shrinks within
    the pass. The tests of one step are batched by conditioning-set size.
    """
    admitted = [(p.target, p.parents) for p in discovered]
    kept = {i: list(parents) for i, parents in admitted}
    failures: list[tuple[int, Exception]] = []
    for s in range(max((len(parents) for _, parents in admitted), default=0)):
        groups: dict[int, list[tuple[int, int, list[int]]]] = {}
        for i, parents in admitted:
            if len(parents) > s and i in kept:
                j = parents[s]
                rest = sorted(q for q in kept[i] if q != j)
                groups.setdefault(len(rest), []).append((i, j, rest))
        for group in groups.values():
            orders = np.array([(*rest, i) for i, _, rest in group], dtype=np.intp)
            partners = np.array([j for _, j, _ in group], dtype=np.intp)
            try:
                passed = _shuffle_tests(design, orders, partners, design.factor(orders))[0]
            except MiinetError as exc:  # the batch fails every target it carried
                for i, _, _ in group:
                    failures.append((i, exc))
                    del kept[i]
                continue
            for (i, j, _), ok in zip(group, passed):
                if not ok:
                    kept[i].remove(j)
    pruned = [
        ParentSet(p.target, tuple(e for e in p.edges if e.source in kept[p.target]))
        for p in discovered
        if p.target in kept
    ]
    return pruned, failures


def _raise_first(results: tuple[list[ParentSet], list[tuple[int, Exception]]]) -> ParentSet:
    parent_sets, failures = results
    if failures:
        raise failures[0][1]
    return parent_sets[0]


def shuffle_test(
    x: TimeSeriesMatrix,
    i: int,
    j: int,
    cond: Sequence[int],
    cfg: OmiiConfig,
) -> ShuffleTestResult:
    """Permutation significance test of I(X_i; X_j | X_K), a one-test batch.

    Only channel j is shuffled, Ns times; the threshold S is the
    floor((1-theta)*Ns)-th smallest null value and the test passes iff the
    actual CMI, j's given (*K, i), strictly exceeds S.
    """
    i, j, *cond = channel_indices(x, (i, j, *cond))
    orders = np.array([(*sorted(cond), i)], dtype=np.intp)
    design = _Design(x, cfg)
    passed, actual, thresholds = _shuffle_tests(
        design, orders, np.array([j]), design.factor(orders)
    )
    return ShuffleTestResult(bool(passed[0]), float(actual[0]), float(thresholds[0]))


def discover(x: TimeSeriesMatrix, i: int, cfg: OmiiConfig) -> ParentSet:
    """Greedy admission of the argmax-CMI candidate while the shuffle test passes.

    Ties in the argmax break toward the lowest channel index.
    """
    targets = channel_indices(x, [i])
    return _raise_first(_discover(_Design(x, cfg), targets))


def remove(x: TimeSeriesMatrix, i: int, discovered: ParentSet, cfg: OmiiConfig) -> ParentSet:
    """Single pass in admission order: drop j when the test on K\\{j} fails.

    The conditioning set shrinks as parents are removed within the pass.
    """
    if [discovered.target] != channel_indices(x, [i]):
        raise ValueError("parent set belongs to a different target")
    channel_indices(x, (i, *discovered.parents))
    return _raise_first(_remove(_Design(x, cfg), [discovered]))


def infer_network(
    x: TimeSeriesMatrix, cfg: OmiiConfig, metadata: dict | None = None
) -> InteractionNetwork:
    """Discovery then removal for every channel; edges run parent -> target.

    Every target that a failing batch carried is reported in one
    NetworkInferenceError, never a silent partial network.
    """
    design = _Design(x, cfg)
    discovered, failures = _discover(design, range(x.n_channels))
    pruned, removal_failures = _remove(design, discovered)
    failures = sorted(failures + removal_failures, key=lambda failure: failure[0])
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
        tuple(e for p in pruned for e in p.edges),
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
