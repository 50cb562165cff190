"""Subsampling algorithms for large graphs, sequences and partitions, with
prefix-density estimation, group-averaged laws of large numbers, and
statistical tests of the samplers' invariance properties."""

from .estimate import (
    ItemProfile,
    LLNTrace,
    PatternTally,
    degree_profile,
    empirical_average,
    endpoint_slot_stats,
    frequency_profile,
    lln_trace,
    multiplicity_profile,
    prefix_density_vector,
)
from .invariance import (
    TestReport,
    test_equivalence,
    test_exchangeability,
    test_idempotence,
    test_involution_invariance,
)
from .models import (
    MultiplicitySpec,
    Paintbox,
    StepGraphon,
    all_singletons_seq,
    alternating_seq,
    complete_vertex,
    cycle_vertex,
    graphon_draw,
    graphon_pattern_density,
    half_multiplicity,
    matching_edgeseq,
    misspec_table,
    multigraph_from_multiplicities,
    paintbox_draw,
    sparsified_graphon_draw,
    star_edgeseq,
    star_vertex,
    y4,
)
from .rng import RandomStream
from .sampling import (
    ALGORITHMS,
    SamplerSpec,
    diagnose_limit,
    make_sampler,
    sample_bs,
    sample_degree_biased,
    sample_edges,
    sample_ego,
    sample_p,
    sample_partition,
    sample_sequence,
    sample_shortest_path,
    sample_sparsified,
    sample_uniform_vertex,
)
from .structures import (
    UNREACHABLE,
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    VertexGraph,
    ball,
    canonical_rooted,
    degrees,
    is_ordered,
    key_for,
    multiplicity_counts,
    relabel_r,
    relabel_rprime,
    restrict,
    restrict_vertices,
    shortest_path_marks,
)

__version__ = "0.1.0"
