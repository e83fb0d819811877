"""Grammar-analysis toolkit: CFL-reachability over labeled graphs, shortest
words of grammar/automaton intersections, parse-tree dimension and
oscillation, grammar classification, and empirical rational-index
measurement.

Submodules load on first use (PEP 562): ``import ratindex`` imports none of
them, and ``ratindex.measure_rho`` imports ``ratindex.measure`` when it is
first read.  So a query pays only for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names that it defines.
_EXPORTS = {
    "bounds": (
        "BoundFormula",
        "dimension_bound",
        "linear_bound",
        "oscillation_bound",
        "superlinear_bound",
        "ultralinear_bound",
    ),
    "classify": (
        "ClassificationReport",
        "classify_grammar",
        "expansive_nonterminals",
        "is_linear",
        "is_superlinear",
        "superlinear_core",
        "verify_ultralinear",
    ),
    "datalog": ("ChainProgram", "chain_to_cfg", "evaluate", "parse_chain_program"),
    "errors": ("RatIndexError",),
    "grammar": (
        "CNFGrammar",
        "EmptyLanguageError",
        "Grammar",
        "Production",
        "cyk_membership",
        "cyk_parse",
        "grammar_to_text",
        "is_valid_parse_tree",
        "parse_grammar",
        "parse_word",
        "to_cnf",
    ),
    "graphs": ("NFA", "LabeledGraph", "graph_to_text", "nfa_to_text", "parse_graph", "parse_nfa"),
    "intersection": (
        "HeightBoundReport",
        "ShortestTable",
        "TripleGrammar",
        "Witness",
        "bar_hillel",
        "extract_witness",
        "height_bound_check",
        "realizable_start_pairs",
        "shortest_start",
        "shortest_words",
    ),
    "measure": (
        "Exhaustive",
        "RandomSample",
        "RhoEstimate",
        "TwoCycle",
        "fit_growth",
        "measure_rho",
        "two_cycle_family",
    ),
    "reachability": ("ReachabilityRelation", "all_pairs_reach", "witness", "witness_path"),
    "sampling": (),
    "trees": ("EPSILON", "ParseTree", "dimension"),
    "wellnested": (
        "WellNestedWord",
        "all_wellnested_words",
        "alpha_of_tree",
        "harmonic",
        "matching_pairs",
        "oscillation",
        "oscillation_bruteforce",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
