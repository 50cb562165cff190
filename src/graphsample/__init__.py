"""Subsampling algorithms for large graphs, sequences and partitions, with
prefix-density estimation, group-averaged laws of large numbers, and
statistical tests of the samplers' invariance properties.

Every exported name loads its module on first use (PEP 562), so
``import graphsample`` loads no submodule and a command loads only the
modules it runs."""

import importlib

# module -> the names it exports, each imported when first read
_LAZY = {
    "estimate": (
        "ItemProfile",
        "LLNTrace",
        "PatternTally",
        "degree_profile",
        "empirical_average",
        "endpoint_slot_stats",
        "frequency_profile",
        "lln_trace",
        "multiplicity_profile",
        "prefix_density_vector",
    ),
    "rng": (
        "RandomStream",
    ),
    "sampling": (
        "ALGORITHMS",
        "SamplerSpec",
        "diagnose_limit",
        "make_sampler",
        "sample_bs",
        "sample_degree_biased",
        "sample_edges",
        "sample_ego",
        "sample_p",
        "sample_partition",
        "sample_sequence",
        "sample_shortest_path",
        "sample_sparsified",
        "sample_uniform_vertex",
    ),
    "structures": (
        "UNREACHABLE",
        "EdgeSeqGraph",
        "MarkedCompleteGraph",
        "Partition",
        "RootedGraph",
        "VertexGraph",
        "ball",
        "canonical_rooted",
        "degrees",
        "is_ordered",
        "key_for",
        "multiplicity_counts",
        "relabel_r",
        "relabel_rprime",
        "restrict",
        "restrict_vertices",
        "shortest_path_marks",
    ),
    "invariance": (
        "TestReport",
        "test_equivalence",
        "test_exchangeability",
        "test_idempotence",
        "test_involution_invariance",
    ),
    "models": (
        "MultiplicitySpec",
        "Paintbox",
        "StepGraphon",
        "all_singletons_seq",
        "alternating_seq",
        "complete_vertex",
        "cycle_vertex",
        "graphon_draw",
        "graphon_pattern_density",
        "half_multiplicity",
        "matching_edgeseq",
        "misspec_table",
        "multigraph_from_multiplicities",
        "paintbox_draw",
        "sparsified_graphon_draw",
        "star_edgeseq",
        "star_vertex",
        "y4",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
