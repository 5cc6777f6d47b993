"""Direct-interaction network inference from multivariate sensor time series.

Parametric Gaussian and multivariate-Laplace estimators of entropy, mutual
information and conditional mutual information, all through one closed
form in the log-determinant of the covariance, drive a greedy
discovery/removal procedure with a permutation shuffle test, plus spatial
pairwise-MI maps and scenario differencing.
"""

__version__ = "0.1.0"

from .core import (
    Axis,
    ChannelId,
    SampleStats,
    TimeSeriesMatrix,
    estimate_stats,
    standardize,
)
from .distributions import (
    EmpiricalDistribution,
    MultivariateGaussian,
    MultivariateLaplace,
    UnivariateLaplace,
    UnivariateNormal,
    bessel_k,
    fit_error_l1,
    log_bessel_k,
    standard_laplace_baseline,
    standard_normal_baseline,
)
from .estimators import (
    Family,
    clamp_nonnegative,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    joint_entropy,
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
    "EmpiricalDistribution",
    "Family",
    "GeneratorSpec",
    "InteractionNetwork",
    "MIMapDiff",
    "MultivariateGaussian",
    "MultivariateLaplace",
    "NetworkDiff",
    "OmiiConfig",
    "PairwiseMIMap",
    "ParentSet",
    "SampleStats",
    "SensorGrid",
    "ShuffleTestResult",
    "TimeSeriesMatrix",
    "UnivariateLaplace",
    "UnivariateNormal",
    "bessel_k",
    "chain_coupling",
    "clamp_nonnegative",
    "conditional_entropy",
    "conditional_mutual_information",
    "coupling_from_edges",
    "degree_distribution",
    "discover",
    "entropy",
    "estimate_stats",
    "fit_error_l1",
    "generate_contemporaneous",
    "generate_var",
    "infer_network",
    "joint_entropy",
    "log_bessel_k",
    "mi_map_diff",
    "mutual_information",
    "neighbor_pairs",
    "network_diff",
    "pairwise_mi_map",
    "random_dag_coupling",
    "remove",
    "shuffle_test",
    "standard_laplace_baseline",
    "standard_normal_baseline",
    "standardize",
    "star_coupling",
]
