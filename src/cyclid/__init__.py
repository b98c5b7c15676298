"""cyclid: blind identification of binary cyclic codes from noisy bitstreams.

The library models a transmitter sending uniform random codewords of an
unknown cyclic code over a binary symmetric channel, computes the exact
distribution of block syndromes under assumed segmentation parameters,
classifies those distributions, and uses them to reconstruct the code
length, synchronization, and generator factors from a received
bitstream.  Everything is exact and desk-scale: enumeration guards fail
loudly instead of sampling.
"""

from ._kernels import BACKEND
from .codes import (
    CyclicCode,
    GuardError,
    InvalidGeneratorError,
    syndrome_basis,
)
from .dists import (
    Boundary,
    BoundarySpan,
    DistributionClass,
    Interior,
    SubspaceSpec,
    SyndromeDistribution,
    Truncation,
    block_decomposition,
    build_subspace,
    classify,
    distinct_block_types,
    error_residue_distribution,
    exact_distribution,
    noisy_distribution,
    noisy_zero_mass,
    predict_class,
    spec_for_block,
    theorem1_restricted_uniform_test,
)

__version__ = "0.1.0"

from .recon import (
    ReconReport,
    TestOutcome,
    empirical_stats,
    h1_upper_bound,
    hypothesis_test,
    kl_lower_bound,
    lambda_coeff,
    mean_zero_coeff_prob_exact,
    reconstruct,
    root_divisibility_prob_exact,
    zero_syndrome_stat,
)
from .stream import (
    StreamConfig,
    generate_stream,
    load_stream,
    save_stream,
    segment,
)
