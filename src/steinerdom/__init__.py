"""Minimum domination of rooted forests and minimum Steiner domination of
trees, in linear time, with independent exact oracles and an audit harness
for the size formula leaf_count + core domination number."""

from importlib import import_module

from .forest_domination import LabelState, forest_domination
from .steiner_domination import steiner_domination
from .tree_model import (
    EdgeList,
    ParentArray,
    ParseError,
    TreeModelError,
    ValidationError,
    build_adjacency,
    closed_neighborhood,
    format_parent_file,
    leaf_set,
    parse_edge_list,
    parse_parent_file,
    relabel_bfs,
    to_edge_list,
    validate,
)

# The generators, the benchmark and the audit, with the oracles, load on
# first use of one of their names (PEP 562), so that importing the package
# for the solver does not also import random, statistics, tracemalloc and
# the oracles.
_LAZY = {
    "bench": "DEFAULT_SIZES linearity_gate run_bench write_csv",
    "corpus": "FIXTURES enumerate_parent_arrays gen random_prufer_edges",
    "oracles": (
        "CapExceededError domination_number_dp induced_forest is_dominating_set "
        "is_steiner_set min_dominating_set min_steiner_dominating_set "
        "steiner_number steiner_subtree"
    ),
    "verify": (
        "AUDIT_FIXTURE DiscrepancyCertificate audit_instance "
        "revalidate_certificate run_verify write_certificate"
    ),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in names.split()}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted([
    "EdgeList", "LabelState", "ParentArray", "ParseError", "TreeModelError",
    "ValidationError", "build_adjacency", "closed_neighborhood", "forest_domination",
    "format_parent_file", "leaf_set", "parse_edge_list", "parse_parent_file",
    "relabel_bfs", "steiner_domination", "to_edge_list", "validate", *_LAZY_MODULE,
])
