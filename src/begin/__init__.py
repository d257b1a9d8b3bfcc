"""Exact conditional independence for +-1 coordinate blocks.

The library decides A independent of C given B for multivariate sign
variables (and bit-encoded multinomials) by linear algebra on the
covariance of interaction features: a vanishing wing off-block of the
generalized Schur complement is equivalent to conditional independence,
with matching conditional-expectation, factorization, and graph-separation
views.  A dyadic quantization layer extends the machinery to bounded
continuous variables with explicit discrepancy rates.
"""

from .bitgroup import (
    WIDTH_CAP,
    IndexSets,
    Mask,
    MaskSpan,
    Partition,
    build_index_sets,
    mask_product,
    partition_from_json,
    partition_to_json,
    span_generate,
    span_intersect,
)
from .distribution import (
    Pmf,
    draw_samples,
    interaction_cov,
    make_ci_pmf,
    make_generic_pmf,
    make_ising_cycle_pmf,
    moments_from_pmf,
    pmf_from_samples,
    read_pmf_csv,
    read_samples_csv,
    write_pmf_csv,
    write_samples_csv,
)
from .engine import (
    BeliefCoefficients,
    CiVerdict,
    FactorizationWitness,
    SubsetFinding,
    assemble_sigma,
    belief_coefficients,
    scan_markov_chain,
    search_subset_counterexamples,
    subset_offblock,
    test_ci,
    verify_block_factorization,
)
from .graph import (
    BeginGraph,
    EdgeList,
    GraphNode,
    build_graph,
    export_graph,
    graph_from_json,
    separates,
)
from .hadamard import (
    PrismMatrix,
    dense_hadamard,
    fwht,
    prism,
    prism_recursion_check,
)
from .oracle import (
    OracleReport,
    oracle_ci,
    oracle_cond_expectation,
    oracle_second_moment,
)
from .quantize import (
    DeltaPoint,
    DeltaReport,
    GridSource,
    QuantConfig,
    SmoothSource,
    delta_curve,
    quantize_index,
    quantize_value,
    quantized_ci_scan,
    quantized_partition,
    quantized_pmf,
    source_from_json,
)
from .schur import (
    CenterBlocks,
    SchurResult,
    SigmaPartition,
    pinv_sym,
    sb_inverse,
    schur_complement,
)

__version__ = "0.1.0"
