"""Ground-truth data generators for validating estimators and oMII.

Two flavors: a VAR(1) recurrence (temporally mixed data, looser ground
truth) and a contemporaneous DAG model (equal-time direct edges, exact
ground truth for the equal-time analysis oMII performs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Axis, ChannelId, TimeSeriesMatrix
from .errors import CyclicGraph, UnstableSpec
from .estimators import Family


@dataclass(frozen=True)
class GeneratorSpec:
    """Planted-coupling generator description.

    coupling[k, j] is the weight of the directed edge k -> j (channel
    indices, 0-based). innovation picks the noise family; noise_scale is the
    innovation standard deviation before the final standardization.
    """

    n_channels: int
    n_samples: int
    coupling: np.ndarray
    innovation: Family = Family.GAUSSIAN
    noise_scale: float = 1.0
    seed: int = 0
    axis: Axis = Axis.LATERAL

    def __post_init__(self):
        coupling = np.asarray(self.coupling, dtype=np.float64)
        if coupling.shape != (self.n_channels, self.n_channels):
            raise ValueError("coupling must be n_channels x n_channels")
        if self.n_channels < 1 or self.n_samples < 2:
            raise ValueError("need n_channels >= 1 and n_samples >= 2")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        coupling = coupling.copy()
        coupling.flags.writeable = False
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "innovation", Family(self.innovation))
        object.__setattr__(self, "axis", Axis(self.axis))

    def true_edges(self) -> set[tuple[int, int]]:
        """Directed (source, target) pairs with nonzero coupling."""
        src, dst = np.nonzero(self.coupling)
        return {(int(a), int(b)) for a, b in zip(src, dst)}

    def skeleton(self) -> set[frozenset[int]]:
        """Direction-agnostic edge set."""
        return {frozenset(e) for e in self.true_edges()}


def _innovations(spec: GeneratorSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    if spec.innovation is Family.GAUSSIAN:
        eta = rng.standard_normal((n, spec.n_channels))
        eta *= spec.noise_scale
        return eta
    # unit-variance Laplace has b = sqrt(2)/2
    b = spec.noise_scale * math.sqrt(2.0) / 2.0
    return rng.laplace(0.0, b, size=(n, spec.n_channels))


def _channels(spec: GeneratorSpec) -> tuple[ChannelId, ...]:
    return tuple(ChannelId(i + 1, spec.axis) for i in range(spec.n_channels))


def _standardized(data: np.ndarray, spec: GeneratorSpec) -> TimeSeriesMatrix:
    """The matrix of data's columns standardized in place; data is given up."""
    mu = data.mean(axis=0)
    sd = data.std(axis=0, ddof=1)
    data -= mu
    data /= sd
    data.flags.writeable = False
    return TimeSeriesMatrix(data, _channels(spec))


BURN_IN = 1000


def _overflow(spec: GeneratorSpec, j: int) -> UnstableSpec:
    """UnstableSpec naming the largest coupling weight into channel j, whose values overflowed."""
    k = int(np.argmax(np.abs(spec.coupling[:, j])))
    source, target = (ChannelId(i + 1, spec.axis).name for i in (k, j))
    weight = float(spec.coupling[k, j])
    return UnstableSpec(
        f"coupling weight {weight!r} of edge {source} -> {target} overflows float64"
    )


def generate_var(spec: GeneratorSpec) -> TimeSeriesMatrix:
    """x_t = A^T x_{t-1} + eta_t with A[k, j] coupling k -> j; burn-in discarded,
    columns standardized to unit marginal variance.

    A spectral radius >= 1, or a weight whose terms overflow float64 (a large
    weight on a nilpotent coupling passes the radius test), raises UnstableSpec.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(spec.coupling))))
    if radius >= 1.0:
        raise UnstableSpec(f"coupling spectral radius {radius:.4f} >= 1")
    rng = np.random.default_rng(spec.seed)
    total = spec.n_samples + BURN_IN
    eta = _innovations(spec, rng, total)
    x = np.zeros((total, spec.n_channels))
    x[0] = eta[0]
    a_t = spec.coupling.T
    with np.errstate(over="raise", invalid="raise"):
        for prev, row, e in zip(x, x[1:], eta[1:]):  # row = a_t @ prev + e, in place
            try:
                np.matmul(a_t, prev, out=row)
                row += e
            except FloatingPointError:
                with np.errstate(over="ignore", invalid="ignore"):
                    j = int(np.argmin(np.isfinite(a_t @ prev + e)))
                raise _overflow(spec, j) from None
        del eta, e  # the view e would keep eta
        try:
            return _standardized(x[BURN_IN:], spec)
        except FloatingPointError:  # squares past float64 in the variance
            raise _overflow(spec, int(np.argmax(np.abs(x).max(axis=0)))) from None


def _topological_order(coupling: np.ndarray) -> list[int]:
    n = coupling.shape[0]
    indegree = [int(np.count_nonzero(coupling[:, j])) for j in range(n)]
    ready = [j for j in range(n) if indegree[j] == 0]
    order: list[int] = []
    while ready:
        j = ready.pop(0)
        order.append(j)
        for child in np.nonzero(coupling[j, :])[0]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(int(child))
    if len(order) != n:
        raise CyclicGraph("coupling graph has a directed cycle")
    return order


def generate_contemporaneous(spec: GeneratorSpec) -> TimeSeriesMatrix:
    """x_j(t) = sum_k w_kj x_k(t) + eta_j(t) along a topological order; rows iid.

    Weights are path coefficients in standardized units: each channel is
    standardized as soon as it is generated, so w_kj is scale-free and
    noise_scale sets the innovation-to-signal ratio at every depth. A weight
    whose terms overflow float64 raises UnstableSpec.
    """
    order = _topological_order(spec.coupling)
    rng = np.random.default_rng(spec.seed)
    # column j holds eta_j until x_j overwrites it; x_j reads only earlier columns
    x = _innovations(spec, rng, spec.n_samples)
    with np.errstate(over="raise", invalid="raise"):
        for j in order:
            parents = np.nonzero(spec.coupling[:, j])[0]
            col = x[:, j].copy()
            try:
                for k in parents:
                    col += spec.coupling[k, j] * x[:, k]
                x[:, j] = (col - col.mean()) / col.std(ddof=1)
            except FloatingPointError:
                raise _overflow(spec, j) from None
    return _standardized(x, spec)


def chain_coupling(n: int, weight: float) -> np.ndarray:
    """Path 0 -> 1 -> ... -> n-1."""
    a = np.zeros((n, n))
    for k in range(n - 1):
        a[k, k + 1] = weight
    return a


def star_coupling(n: int, weight: float) -> np.ndarray:
    """Channel 0 drives every other channel."""
    a = np.zeros((n, n))
    a[:1, 1:] = weight
    return a


def random_dag_coupling(n: int, density: float, weight: float, seed: int) -> np.ndarray:
    """ER DAG: each pair i<j carries edge i -> j with probability `density` in [0, 1]."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                a[i, j] = weight
    return a


def coupling_from_edges(
    n: int, edges: list[tuple[int, int, float]]
) -> np.ndarray:
    """Adjacency from explicit (source, target, weight) channel triples.

    An edge listed twice is refused, since only one of its weights could be kept.
    """
    a = np.zeros((n, n))
    listed = set()
    for k, (src, dst, w) in enumerate(edges):
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) outside 0..{n - 1}")
        if src == dst:
            raise ValueError("self-loops not allowed")
        if (src, dst) in listed:
            raise ValueError(f"edge {k} ({src}, {dst}) is already listed")
        listed.add((src, dst))
        a[src, dst] = w
    return a
