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

Each call draws one bank of Ns permutations, fixed by (seed, Ns, T), and
every shuffle test of the call takes its nulls from it, so target order
changes no result and each test is still an exact permutation test. Only j is
shuffled, so the nulls need just the covariances of j's Ns shuffled copies
with (*K, i): columns of one Ns x N table per channel, built on j's first
test and dropped with the call. The nulls' variance is j's ridged diagonal
entry, so they read the same regularized covariance as the actual CMI.

Both families share one numeric path: a family's CMI given |K| = k is the
Gaussian CMI plus the constant delta(k), and every test of a batch has the
same k, so the Gaussian values shifted by delta(k) are the family's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeSeriesMatrix, as_integer
from .errors import ConditionSetTooLarge, MiinetError, NetworkInferenceError
from .estimators import Family, cholesky, cmi_offset, gaussian_cmi
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
    """A read-only (Ns, T) bank of permutations of 0..T-1, drawn from the seed."""
    rng = np.random.default_rng(derive_seed(seed, "shuffle-perm"))
    perms = np.empty((n_shuffles, t), dtype=np.intp)
    for row in perms:
        row[:] = rng.permutation(t)
    perms.flags.writeable = False
    return perms


def _null_table(centered: np.ndarray, j: int, bank: np.ndarray) -> np.ndarray:
    """(Ns, N) covariances of channel j's Ns shuffled copies with every channel."""
    return centered[:, j].copy()[bank] @ centered / (centered.shape[0] - 1)


class _Nulls:
    """One call's permutation bank and the per-channel null tables built from it."""

    def __init__(self, x: TimeSeriesMatrix, cfg: OmiiConfig):
        self.x, self.cfg = x, cfg
        self.bank = _permutations(cfg.seed, cfg.n_shuffles, x.n_samples)
        self.centered = x.data - x.data.mean(axis=0)
        self.tables: dict[int, np.ndarray] = {}

    def table(self, j: int) -> np.ndarray:
        if j not in self.tables:
            self.tables[j] = _null_table(self.centered, j, self.bank)
        return self.tables[j]


def _factor(cov: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The (A, m, m) Cholesky factors of cov[order, order] over the rows of `orders`."""
    return cholesky(cov[orders[:, :, None], orders[:, None, :]])


def _test_cmis(
    nulls: _Nulls, orders: np.ndarray, partners: np.ndarray, factor: np.ndarray
) -> np.ndarray:
    """Gaussian I(i_a; j_a | K_a) and its Ns shuffled nulls for a batch of tests, (A, 1 + Ns).

    Row a of `orders` is (*K_a, i_a), `partners[a]` is j_a, and `factor` is
    `_factor(cov, orders)`; every K_a has the same size. Column 0 is j_a's
    actual CMI given (*K_a, i_a), the other columns its shuffled copies'.
    """
    cov = nulls.x.covariance
    rows = np.stack(
        [np.vstack((cov[j, order], nulls.table(j)[:, order])) for j, order in zip(partners, orders)]
    )
    return gaussian_cmi(factor, rows, cov[partners, partners][:, None])


def _shuffle_tests(
    nulls: _Nulls, orders: np.ndarray, partners: np.ndarray, factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass flags, actual CMIs and thresholds of a batch of `_test_cmis`, family values.

    A test passes iff its actual CMI strictly exceeds the
    floor((1-theta)*Ns)-th smallest of its nulls.
    """
    x, cfg = nulls.x, nulls.cfg
    k = orders.shape[1] - 1
    if k + 2 >= x.n_samples:
        raise ConditionSetTooLarge(f"|K|+2 = {k + 2} >= T = {x.n_samples}")
    cmis = _test_cmis(nulls, orders, partners, factor) + cmi_offset(cfg.family, k)
    actual = cmis[:, 0]
    thresholds = np.sort(cmis[:, 1:], axis=1)[:, cfg.threshold_rank - 1]
    return actual > thresholds, actual, thresholds


def _discover(
    nulls: _Nulls, targets: Sequence[int]
) -> tuple[list[ParentSet], list[tuple[int, Exception]]]:
    """Discovery for every target at once, one stacked round at a time.

    Ties in a target's argmax break toward the lowest channel index.
    """
    x = nulls.x
    n = x.n_channels
    if n < 2:
        raise ValueError("need at least 2 channels")
    cov = x.covariance
    found: dict[int, list[Edge]] = {int(i): [] for i in targets}
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
            factor = _factor(cov, orders)
            cmis = gaussian_cmi(
                factor, cov[candidates[:, :, None], orders[:, None, :]], cov.diagonal()[candidates]
            )
            best = candidates[index, np.argmax(cmis, axis=1)]
            passed, actual, thresholds = _shuffle_tests(nulls, orders, best, factor)
        except MiinetError as exc:  # the batch fails every target it carried
            failures.extend((int(i), exc) for i in active)
            for i in active:
                del found[int(i)]
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
    nulls: _Nulls, discovered: Sequence[ParentSet]
) -> tuple[list[ParentSet], list[tuple[int, Exception]]]:
    """Removal for every target at once, one admission step at a time.

    Step s tests each target's s-th admitted parent j given its kept set
    without j, and drops j when the test fails; the kept set shrinks within
    the pass. The tests of one step are batched by conditioning-set size.
    """
    cov = nulls.x.covariance
    kept = {p.target: list(p.parents) for p in discovered}
    failures: list[tuple[int, Exception]] = []
    for s in range(max((len(p.parents) for p in discovered), default=0)):
        groups: dict[int, list[tuple[int, int, list[int]]]] = {}
        for p in discovered:
            if len(p.parents) > s and p.target in kept:
                j = p.parents[s]
                rest = sorted(q for q in kept[p.target] if q != j)
                groups.setdefault(len(rest), []).append((p.target, j, rest))
        for group in groups.values():
            orders = np.array([(*rest, i) for i, _, rest in group], dtype=np.intp)
            partners = np.array([j for _, j, _ in group], dtype=np.intp)
            try:
                passed = _shuffle_tests(nulls, orders, partners, _factor(cov, orders))[0]
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
    i, j = int(i), int(j)
    cond = tuple(sorted(int(c) for c in cond))
    channels = (i, j, *cond)
    if len(set(channels)) != len(channels):
        raise ValueError("i, j and the conditioning channels must all differ")
    if not all(0 <= c < x.n_channels for c in channels):
        raise ValueError(f"channel indices {list(channels)} outside 0..{x.n_channels - 1}")
    orders = np.array([(*cond, i)], dtype=np.intp)
    passed, actual, thresholds = _shuffle_tests(
        _Nulls(x, cfg), orders, np.array([j]), _factor(x.covariance, orders)
    )
    return ShuffleTestResult(bool(passed[0]), float(actual[0]), float(thresholds[0]))


def discover(x: TimeSeriesMatrix, i: int, cfg: OmiiConfig) -> ParentSet:
    """Greedy admission of the argmax-CMI candidate while the shuffle test passes.

    Ties in the argmax break toward the lowest channel index.
    """
    return _raise_first(_discover(_Nulls(x, cfg), [int(i)]))


def remove(x: TimeSeriesMatrix, i: int, discovered: ParentSet, cfg: OmiiConfig) -> ParentSet:
    """Single pass in admission order: drop j when the test on K\\{j} fails.

    The conditioning set shrinks as parents are removed within the pass.
    """
    if discovered.target != int(i):
        raise ValueError("parent set belongs to a different target")
    return _raise_first(_remove(_Nulls(x, cfg), [discovered]))


def infer_network(
    x: TimeSeriesMatrix, cfg: OmiiConfig, metadata: dict | None = None
) -> InteractionNetwork:
    """Discovery then removal for every channel; edges run parent -> target.

    Every target that a failing batch carried is reported in one
    NetworkInferenceError, never a silent partial network.
    """
    nulls = _Nulls(x, cfg)
    discovered, failures = _discover(nulls, range(x.n_channels))
    pruned, removal_failures = _remove(nulls, discovered)
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
