"""Sensor-grid geometry, neighbor pairwise-MI maps and scenario diffs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Axis, TimeSeriesMatrix
from .errors import EdgeSetMismatch, MissingChannel, NodeSetMismatch
from .estimators import Family, mutual_information
from .omii import Edge, InteractionNetwork


@dataclass(frozen=True)
class SensorGrid:
    """Sensor index -> (row, col) integer grid coordinates.

    The grid may have gaps; spacings are carried for physical layout export.
    """

    positions: dict[int, tuple[int, int]]
    lateral_spacing_m: float = 2.13
    longitudinal_spacing_m: float = 1.96

    def __post_init__(self):
        positions = {
            int(s): (int(r), int(c)) for s, (r, c) in self.positions.items()
        }
        if any(s < 1 for s in positions):
            raise ValueError("sensor indices must be >= 1")
        if len(set(positions.values())) != len(positions):
            raise ValueError("positions must be injective")
        object.__setattr__(self, "positions", positions)

    @property
    def sensors(self) -> tuple[int, ...]:
        return tuple(sorted(self.positions))

    @classmethod
    def full(cls, rows: int, cols: int, **kwargs) -> "SensorGrid":
        """Row-major rectangular layout, sensors numbered from 1."""
        positions = {
            r * cols + c + 1: (r, c) for r in range(rows) for c in range(cols)
        }
        return cls(positions, **kwargs)


def neighbor_pairs(grid: SensorGrid) -> list[tuple[int, int]]:
    """All sensor pairs at unit grid distance horizontally or vertically."""
    by_pos = {pos: s for s, pos in grid.positions.items()}
    pairs = set()
    for s, (r, c) in grid.positions.items():
        for dr, dc in ((0, 1), (1, 0)):
            other = by_pos.get((r + dr, c + dc))
            if other is not None:
                pairs.add(tuple(sorted((s, other))))
    return sorted(pairs)


@dataclass(frozen=True)
class PairwiseMIMap:
    """MI (raw, nats) on grid-adjacent sensor pairs for one axis and scenario."""

    axis: Axis
    scenario: str
    edges: tuple[tuple[int, int], ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.values):
            raise ValueError("edges/values length mismatch")
        if any(not np.isfinite(v) for v in self.values):
            raise ValueError("MI values must be finite")
        object.__setattr__(self, "axis", Axis(self.axis))


def pairwise_mi_map(
    x: TimeSeriesMatrix,
    grid: SensorGrid,
    axis: Axis,
    family: Family,
    scenario: str = "",
) -> PairwiseMIMap:
    """MI between each sensor and its grid neighbors, one value per pair."""
    axis = Axis(axis)
    columns = x.axis_channel_indices(axis)
    for sensor in grid.sensors:
        if sensor not in columns:
            raise MissingChannel(sensor, axis.value)
    edges = neighbor_pairs(grid)
    values = tuple(mutual_information(x, columns[a], columns[b], family) for a, b in edges)
    return PairwiseMIMap(axis, scenario, tuple(edges), values)


@dataclass(frozen=True)
class MIMapDiff:
    """Per-edge comparison-minus-baseline MI change (loosening shows negative)."""

    axis: Axis
    baseline_scenario: str
    comparison_scenario: str
    edges: tuple[tuple[int, int], ...]
    deltas: tuple[float, ...]
    sign_convention: str = "comparison_minus_baseline"


def mi_map_diff(baseline: PairwiseMIMap, comparison: PairwiseMIMap) -> MIMapDiff:
    if baseline.axis is not comparison.axis:
        raise EdgeSetMismatch("maps computed on different axes")
    if baseline.edges != comparison.edges:
        raise EdgeSetMismatch("maps cover different edge sets")
    deltas = tuple(b - a for a, b in zip(baseline.values, comparison.values))
    return MIMapDiff(
        baseline.axis,
        baseline.scenario,
        comparison.scenario,
        baseline.edges,
        deltas,
    )


@dataclass(frozen=True)
class RetainedEdge:
    source: int
    target: int
    weight_baseline: float
    weight_comparison: float

    @property
    def delta(self) -> float:
        return self.weight_comparison - self.weight_baseline


@dataclass(frozen=True)
class NetworkDiff:
    """Edge-set partition of two networks sharing a node set."""

    lost: tuple[Edge, ...]
    gained: tuple[Edge, ...]
    retained: tuple[RetainedEdge, ...]


def network_diff(baseline: InteractionNetwork, comparison: InteractionNetwork) -> NetworkDiff:
    """Partition directed edges into lost / gained / retained.

    Both networks must map the same node indices to the same names, so that
    networks on different axes are not compared index by index.
    """
    names = [dict(zip(net.nodes, net.node_names)) for net in (baseline, comparison)]
    if names[0] != names[1]:
        raise NodeSetMismatch("networks cover different node sets or name them differently")
    base_edges = {(e.source, e.target): e for e in baseline.edges}
    comp_edges = {(e.source, e.target): e for e in comparison.edges}
    lost = tuple(base_edges[k] for k in sorted(base_edges.keys() - comp_edges.keys()))
    gained = tuple(comp_edges[k] for k in sorted(comp_edges.keys() - base_edges.keys()))
    retained = tuple(
        RetainedEdge(k[0], k[1], base_edges[k].weight, comp_edges[k].weight)
        for k in sorted(base_edges.keys() & comp_edges.keys())
    )
    # partition identities, checked on every call
    lost_keys = {(e.source, e.target) for e in lost}
    gained_keys = {(e.source, e.target) for e in gained}
    retained_keys = {(e.source, e.target) for e in retained}
    if lost_keys & gained_keys:
        raise AssertionError("lost and gained overlap")
    if lost_keys | retained_keys != base_edges.keys():
        raise AssertionError("lost + retained != baseline edges")
    if gained_keys | retained_keys != comp_edges.keys():
        raise AssertionError("gained + retained != comparison edges")
    return NetworkDiff(lost, gained, retained)
