import importlib
import os
import subprocess
import sys

import pytest

import ratindex

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "bounds": [
        "BoundFormula",
        "dimension_bound",
        "linear_bound",
        "oscillation_bound",
        "superlinear_bound",
        "ultralinear_bound",
    ],
    "classify": [
        "ClassificationReport",
        "classify_grammar",
        "expansive_nonterminals",
        "is_linear",
        "is_superlinear",
        "superlinear_core",
        "verify_ultralinear",
    ],
    "datalog": ["ChainProgram", "chain_to_cfg", "evaluate", "parse_chain_program"],
    "errors": ["RatIndexError"],
    "grammar": [
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
    ],
    "graphs": ["LabeledGraph", "NFA", "graph_to_text", "nfa_to_text", "parse_graph", "parse_nfa"],
    "intersection": [
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
    ],
    "measure": [
        "Exhaustive",
        "RandomSample",
        "RhoEstimate",
        "TwoCycle",
        "fit_growth",
        "measure_rho",
        "two_cycle_family",
    ],
    "reachability": ["ReachabilityRelation", "all_pairs_reach", "witness", "witness_path"],
    "sampling": [],
    "trees": ["EPSILON", "ParseTree", "dimension"],
    "wellnested": [
        "WellNestedWord",
        "all_wellnested_words",
        "alpha_of_tree",
        "harmonic",
        "matching_pairs",
        "oscillation",
        "oscillation_bruteforce",
    ],
}


def test_all_lists_the_submodules_and_their_public_names():
    names = [n for names in PUBLIC.values() for n in names]
    assert ratindex.__all__ == sorted([*PUBLIC, *names])
    assert len(ratindex.__all__) == 78
    assert set(ratindex.__all__) <= set(dir(ratindex))
    assert ratindex.__version__ == "0.1.0"


def test_dir_lists_the_public_names_before_any_is_read():
    code = "import ratindex\nprint(' '.join(n for n in dir(ratindex) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ratindex.__all__


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_submodules_own(module):
    submodule = importlib.import_module("ratindex." + module)
    assert getattr(ratindex, module) is submodule
    for name in PUBLIC[module]:
        assert getattr(ratindex, name) is getattr(submodule, name)
        assert vars(ratindex)[name] is getattr(submodule, name)  # looked up once


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ratindex import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == ratindex.__all__
    assert all(namespace[n] is getattr(ratindex, n) for n in ratindex.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        ratindex.missing


def _modules_after(code):
    """The modules loaded in a fresh interpreter after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_submodule():
    loaded = _modules_after("import ratindex")
    assert not {"ratindex.measure", "ratindex.classify", "statistics"} & loaded
    assert {m for m in loaded if m.startswith("ratindex.")} == set()


def test_queries_load_no_sweep_module():
    # a set-up and the commands that answer queries leave the sweep,
    # classification, bound and oscillation modules unloaded
    loaded = _modules_after(
        "import ratindex\n"
        "g = ratindex.to_cnf(ratindex.parse_grammar('S -> a S b | a b'))\n"
        "ratindex.all_pairs_reach(g, ratindex.parse_graph('1 a 2\\n2 b 3\\n'))\n"
        "import ratindex.cli"
    )
    sweep_modules = ("measure", "classify", "bounds", "wellnested", "sampling")
    assert not {"ratindex." + m for m in sweep_modules} & loaded
    assert "statistics" not in loaded
    assert "ratindex.reachability" in loaded


PRODUCT_ENGINE = {"ratindex.intersection", "ratindex.reachability"}


def test_parsing_loads_no_product_engine():
    # the product engine loads when a query runs, not when its inputs parse
    loaded = _modules_after(
        "import ratindex\n"
        "g = ratindex.to_cnf(ratindex.parse_grammar('S -> a S b | a b'))\n"
        "ratindex.parse_word(g, 'aabb')\n"
        "ratindex.parse_graph('1 a 2\\n2 b 3\\n')\n"
        "ratindex.parse_nfa('initial: 1\\naccepting: 3\\n1 a 2\\n2 b 3\\n')\n"
        "ratindex.parse_chain_program('P(x, y) :- E(x, y).')"
    )
    assert not PRODUCT_ENGINE & loaded
    assert "ratindex.grammar" in loaded and "ratindex.datalog" in loaded


def test_cnf_bounds_and_classify_load_no_product_engine_or_logging(tmp_path):
    grammar = tmp_path / "anbn.cfg"
    grammar.write_text("S -> a S b | a b\n")
    runs = [
        ["cnf", "--grammar", str(grammar)],
        ["bounds", "--family", "linear", "--n-max", "2"],
        ["classify", "--grammar", str(grammar), "--samples", "5"],
    ]
    loaded = _modules_after(
        "import contextlib, io, os\n"
        "os.environ.pop('RATINDEX_LOG', None)\n"
        "from ratindex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in %r]\n"
        "assert codes == [0, 0, 0], codes" % (runs,)
    )
    assert not (PRODUCT_ENGINE | {"logging"}) & loaded
    assert "ratindex.classify" in loaded and "ratindex.bounds" in loaded


def test_ratindex_log_still_shows_the_sweep_diagnostics(tmp_path):
    grammar = tmp_path / "anbn.cfg"
    grammar.write_text("S -> a S b | a b\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ratindex", "measure-rho", "--grammar", str(grammar),
         "--strategy", "exhaustive", "--n-min", "1"],
        capture_output=True, text=True, env={**os.environ, "RATINDEX_LOG": "DEBUG"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1,2,true,ab,enum_m1_t3_i0_f0"
    assert proc.stderr.startswith("DEBUG:ratindex.measure:measure_rho n=1 tested=")
