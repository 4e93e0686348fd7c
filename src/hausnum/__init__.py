"""Hausdorff numbers of topological spaces.

Exact analysis of finite topologies (validation, separation axioms, the
Hausdorff number with witnesses), exhaustive enumeration classified by
Hausdorff number, named example constructions, and a decidable symbolic
model of the doubled-interval spaces with uncountable carriers.

Every name in ``__all__`` and every library submodule (``hausnum.core`` and
the others) is an attribute of the package, imported on first access:
``import hausnum`` imports no submodule, and ``hausnum.hausdorff_number``
imports ``hausnum.separation`` and what that module imports.
``from hausnum import *`` loads them all.

The package is pure Python.  ``BACKEND_NAME`` is always ``"pure"``; it is
kept for callers that read it.
"""

import importlib

# Module -> the public names it defines; ``__getattr__`` imports the module
# when one of its names is first read.
_EXPORTS = {
    "constructions": (
        "build_example", "doubled_point_topology", "export_example",
        "filtered_four_point", "three_point_example", "two_block_topology",
    ),
    "core": (
        "FiniteTopology", "PointSet", "Preorder", "SubspaceResult",
        "generate_from_subbasis", "minimal_neighborhood",
        "specialization_preorder", "subspace", "topology_from_preorder",
        "validate_topology",
    ),
    "enumeration": (
        "CanonicalForm", "CountsTable", "StirlingReport", "canonical_form",
        "count_by_hausdorff", "enumerate_classes", "enumerate_labeled",
        "enumerate_preorders", "labeled_and_t0_counts", "naive_counts",
        "stirling2", "stirling_consistency",
    ),
    "jsonio": (
        "load_topology", "topology_from_dict", "topology_to_dict",
        "topology_to_json",
    ),
    "limits": ("MAX_OPENS", "MAX_POINTS"),
    "separation": (
        "AxiomsReport", "HausdorffNumber", "SeparationDecision",
        "SeparationWitness", "analysis_report", "axioms_report",
        "hausdorff_number", "hausdorff_number_oracle", "is_n_hausdorff",
        "is_separable", "verify_witness",
    ),
    "symbolic": (
        "OMEGA", "OMEGA_ONE", "Base", "BasePoint", "BasisNeighborhood",
        "BugEyedSpace", "Cardinal", "Finite", "SeparabilityVerdict",
        "SymbolicPoint", "Vertical", "VerticalPoint", "grid_witness_search",
        "hausdorff_number_symbolic", "intersection_nonempty",
        "largest_nonseparable_set", "membership", "neighborhood_of",
        "parse_point", "parse_points", "restrict", "separable", "t1_status",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__version__ = "0.1.0"

BACKEND_NAME = "pure"

__all__ = [
    "BACKEND_NAME",
    "MAX_POINTS",
    "MAX_OPENS",
    "PointSet",
    "FiniteTopology",
    "Preorder",
    "SubspaceResult",
    "validate_topology",
    "generate_from_subbasis",
    "minimal_neighborhood",
    "specialization_preorder",
    "topology_from_preorder",
    "subspace",
    "SeparationWitness",
    "SeparationDecision",
    "HausdorffNumber",
    "AxiomsReport",
    "is_separable",
    "verify_witness",
    "hausdorff_number",
    "hausdorff_number_oracle",
    "is_n_hausdorff",
    "axioms_report",
    "analysis_report",
    "CanonicalForm",
    "CountsTable",
    "StirlingReport",
    "enumerate_labeled",
    "enumerate_preorders",
    "enumerate_classes",
    "canonical_form",
    "count_by_hausdorff",
    "labeled_and_t0_counts",
    "stirling2",
    "stirling_consistency",
    "naive_counts",
    "three_point_example",
    "two_block_topology",
    "filtered_four_point",
    "doubled_point_topology",
    "build_example",
    "export_example",
    "load_topology",
    "topology_to_dict",
    "topology_from_dict",
    "topology_to_json",
    "OMEGA",
    "OMEGA_ONE",
    "Base",
    "Vertical",
    "BasePoint",
    "VerticalPoint",
    "SymbolicPoint",
    "BasisNeighborhood",
    "BugEyedSpace",
    "Cardinal",
    "Finite",
    "SeparabilityVerdict",
    "membership",
    "neighborhood_of",
    "intersection_nonempty",
    "separable",
    "hausdorff_number_symbolic",
    "largest_nonseparable_set",
    "t1_status",
    "restrict",
    "grid_witness_search",
    "parse_point",
    "parse_points",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
