"""Direct-interaction network inference from multivariate sensor time series.

Parametric Gaussian and multivariate-Laplace estimators of entropy, mutual
information and conditional mutual information, all closed forms in one
regularized covariance (log-determinants, partial correlations), drive a greedy
discovery/removal procedure with a permutation shuffle test, plus spatial
pairwise-MI maps and scenario differencing.
"""

__version__ = "0.1.0"

from .core import (
    Axis,
    ChannelId,
    TimeSeriesMatrix,
    standardize,
)
from .distributions import bessel_k, fit_errors, log_bessel_k
from .estimators import (
    Family,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .omii import (
    DegreeDistribution,
    Edge,
    InteractionNetwork,
    OmiiConfig,
    ParentSet,
    ShuffleTestResult,
    degree_distribution,
    discover,
    infer_network,
    remove,
    shuffle_test,
)
from .spatial import (
    MIMapDiff,
    NetworkDiff,
    PairwiseMIMap,
    SensorGrid,
    mi_map_diff,
    neighbor_pairs,
    network_diff,
    pairwise_mi_map,
)
from .synthetic import (
    GeneratorSpec,
    chain_coupling,
    coupling_from_edges,
    generate_contemporaneous,
    generate_var,
    random_dag_coupling,
    star_coupling,
)

__all__ = [
    "Axis",
    "ChannelId",
    "DegreeDistribution",
    "Edge",
    "Family",
    "GeneratorSpec",
    "InteractionNetwork",
    "MIMapDiff",
    "NetworkDiff",
    "OmiiConfig",
    "PairwiseMIMap",
    "ParentSet",
    "SensorGrid",
    "ShuffleTestResult",
    "TimeSeriesMatrix",
    "bessel_k",
    "chain_coupling",
    "conditional_mutual_information",
    "coupling_from_edges",
    "degree_distribution",
    "discover",
    "entropy",
    "fit_errors",
    "generate_contemporaneous",
    "generate_var",
    "infer_network",
    "log_bessel_k",
    "mi_map_diff",
    "mutual_information",
    "neighbor_pairs",
    "network_diff",
    "pairwise_mi_map",
    "random_dag_coupling",
    "remove",
    "shuffle_test",
    "standardize",
    "star_coupling",
]
