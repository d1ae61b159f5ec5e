"""Dirichlet process mixtures of univariate Normals: slice, blocked Gibbs,
and urn-scheme posterior samplers, an exact small-n partition posterior,
and Monte Carlo verification of the slice sampler's cost bounds."""

from .core import (
    InconsistentStateError,
    MixtureState,
    ModelConfig,
    Partition,
    RunawayExtensionError,
    TraceRecord,
    log_likelihood,
    rand_index,
    relabel_compact,
    relabel_compact_with_map,
)
from .randkit import NoValidCategoryError, RngStream
from .samplers import (
    ChainResult,
    SamplerKind,
    bgs_sweep,
    crp_sweep_atoms,
    crp_sweep_collapsed,
    extend_components,
    make_sweep,
    run_chain,
    sample_allocated_weights,
    sample_atoms_conjugate,
    sample_slices,
    slice_sweep,
    slice_sweep_marginal_atoms,
    truncation_error_bound,
    update_alpha_escobar_west,
)
from .oracle import (
    ExactPosterior,
    bell_number,
    enumerate_partitions,
    exact_posterior,
    log_eppf_dp,
    tv_distance,
)
from .diagnostics import (
    BinderResult,
    EssResult,
    accumulate_coclustering,
    binder_point_estimate,
    binder_point_estimate_sparse,
    ess,
)
from .datagen import (
    Dataset,
    gen_perturbed_zipf,
    gen_three_clusters,
    kmeans_init,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .bounds import (
    BoundConstants,
    check_exponential_tail,
    check_merge_chain,
    check_merge_monotonicity,
    check_overhead_bound,
    check_poisson_stick_law,
    overhead_bound_constants,
    resolve_partition_sizes,
    simulate_overhead,
    simulate_umin,
    umin_tail_bound,
    umin_threshold,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
