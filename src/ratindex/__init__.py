"""Grammar-analysis toolkit: CFL-reachability over labeled graphs, shortest
words of grammar/automaton intersections, parse-tree dimension and
oscillation, grammar classification, and empirical rational-index
measurement."""

__version__ = "0.1.0"

from .bounds import (
    BoundFormula,
    dimension_bound,
    linear_bound,
    oscillation_bound,
    superlinear_bound,
    ultralinear_bound,
)
from .classify import (
    ClassificationReport,
    classify_grammar,
    expansive_nonterminals,
    is_linear,
    is_superlinear,
    superlinear_core,
    verify_ultralinear,
)
from .datalog import ChainProgram, chain_to_cfg, evaluate, parse_chain_program
from .errors import RatIndexError
from .grammar import (
    CNFGrammar,
    EmptyLanguageError,
    Grammar,
    Production,
    cyk_membership,
    cyk_parse,
    grammar_to_text,
    is_valid_parse_tree,
    parse_grammar,
    parse_word,
    to_cnf,
)
from .graphs import NFA, LabeledGraph, graph_to_text, nfa_to_text, parse_graph, parse_nfa
from .intersection import (
    HeightBoundReport,
    ShortestTable,
    TripleGrammar,
    Witness,
    bar_hillel,
    extract_witness,
    height_bound_check,
    realizable_start_pairs,
    shortest_start,
    shortest_words,
)
from .measure import (
    Exhaustive,
    RandomSample,
    RhoEstimate,
    TwoCycle,
    fit_growth,
    measure_rho,
    two_cycle_family,
)
from .reachability import ReachabilityRelation, all_pairs_reach, witness, witness_path
from .trees import EPSILON, ParseTree, dimension
from .wellnested import (
    WellNestedWord,
    all_wellnested_words,
    alpha_of_tree,
    harmonic,
    matching_pairs,
    oscillation,
    oscillation_bruteforce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
