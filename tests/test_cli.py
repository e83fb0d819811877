import hashlib
import subprocess
import sys

import pytest

from ratindex.cli import main
from ratindex.graphs import nfa_to_text
from ratindex.measure import two_cycle_family

from conftest import ANBN_TEXT, EXAMPLE_PROGRAM, two_regular_dyck_graph

CHILD_GRAPH_TSV = "1\tchild\t2\n2\tchild\t3\n"


@pytest.fixture
def anbn_file(tmp_path):
    path = tmp_path / "anbn.cfg"
    path.write_text(ANBN_TEXT)
    return str(path)


@pytest.fixture
def twocycle_file(tmp_path):
    path = tmp_path / "twocycle_2_3.nfa"
    path.write_text(nfa_to_text(two_cycle_family(2, 3)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cnf_roundtrip(capsys, anbn_file):
    code, out, _ = run_cli(capsys, "cnf", "--grammar", anbn_file)
    assert code == 0
    assert "->" in out
    assert out.splitlines()[0].startswith("S")


def test_member(capsys, anbn_file):
    code, out, _ = run_cli(capsys, "member", "--grammar", anbn_file, "--word", "aabb")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "member", "--grammar", anbn_file, "--word", "aab")
    assert (code, out.strip()) == (0, "false")


def test_shortest_two_cycle(capsys, anbn_file, twocycle_file):
    code, out, _ = run_cli(
        capsys, "shortest", "--grammar", anbn_file, "--nfa", twocycle_file
    )
    assert code == 0
    assert out.splitlines()[0] == "12\taaaaaabbbbbb"


def test_shortest_witness_path(capsys, anbn_file, twocycle_file):
    code, out, _ = run_cli(
        capsys, "shortest", "--grammar", anbn_file, "--nfa", twocycle_file,
        "--witness",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12\taaaaaabbbbbb"
    assert lines[1].startswith("path\tA0 A1 A0")
    assert lines[1].split("\t")[1].split() == [
        "A0", "A1", "A0", "A1", "A0", "A1", "A0",
        "B1", "B2", "B0", "B1", "B2", "B0",
    ]


def test_shortest_empty_intersection(capsys, anbn_file, tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("1\ta\t2\n")
    code, out, err = run_cli(
        capsys, "shortest", "--grammar", anbn_file, "--graph", str(graph)
    )
    assert code == 1
    assert "∅" in err


def test_intersect_listing(capsys, anbn_file, tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("1\ta\t2\n2\tb\t3\n")
    code, out, _ = run_cli(
        capsys, "intersect", "--grammar", anbn_file, "--graph", str(graph)
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert ["S", "1", "3", "2"] in rows


def test_intersect_listing_in_full(capsys, anbn_file, tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("1\ta\t2\n2\tb\t3\n")
    code, out, _ = run_cli(
        capsys, "intersect", "--grammar", anbn_file, "--graph", str(graph)
    )
    assert code == 0
    assert out == "S\t1\t3\t2\nT_a\t1\t2\t1\nT_b\t2\t3\t1\n"


def test_shortest_witness_tie_takes_the_smallest_pair(capsys, anbn_file, tmp_path):
    # two disjoint `a b` paths; the one listed first has the larger names
    graph = tmp_path / "tie.tsv"
    graph.write_text("p\ta\tq\nq\tb\tr\nb\ta\tc\nc\tb\td\n")
    code, out, _ = run_cli(
        capsys, "shortest", "--grammar", anbn_file, "--graph", str(graph), "--witness"
    )
    assert (code, out) == (0, "2\tab\npath\tb c d\n")


def test_reach(capsys, tmp_path):
    grammar = tmp_path / "desc.cfg"
    grammar.write_text("Desc -> Child | Child Desc\nChild -> child\n")
    graph = tmp_path / "family.tsv"
    graph.write_text(CHILD_GRAPH_TSV)
    code, out, _ = run_cli(
        capsys, "reach", "--grammar", str(grammar), "--graph", str(graph)
    )
    assert code == 0
    assert out.splitlines() == ["1\t2", "1\t3", "2\t3"]
    code, out, _ = run_cli(
        capsys,
        "reach",
        "--grammar",
        str(grammar),
        "--graph",
        str(graph),
        "--source",
        "1",
    )
    assert out.splitlines() == ["1\t2", "1\t3"]


@pytest.mark.parametrize("flag", ["--source", "--target"])
def test_reach_rejects_a_node_not_in_the_graph(capsys, tmp_path, flag):
    # it used to print nothing and exit 0, as for a real node with no facts
    grammar = tmp_path / "desc.cfg"
    grammar.write_text("Desc -> Child | Child Desc\nChild -> child\n")
    graph = tmp_path / "family.tsv"
    graph.write_text(CHILD_GRAPH_TSV)
    code, out, err = run_cli(
        capsys, "reach", "--grammar", str(grammar), "--graph", str(graph), flag, "nosuch"
    )
    assert (code, out, err) == (1, "", "error: node 'nosuch' is not in the graph\n")


def test_tree_metrics(capsys, anbn_file):
    code, out, _ = run_cli(
        capsys, "tree-metrics", "--grammar", anbn_file, "--word", "aabb"
    )
    assert code == 0
    # osc value cross-checked against the brute-force oracle below
    assert out.strip() == "dim=1 osc=2"


def test_tree_metrics_values_match_oracles(anbn_cnf):
    from ratindex.grammar import cyk_parse
    from ratindex.trees import dimension
    from ratindex.wellnested import alpha_of_tree, oscillation_bruteforce

    tree = cyk_parse(anbn_cnf, "aabb")
    word = alpha_of_tree(tree)
    assert dimension(tree) == 1
    assert oscillation_bruteforce(word, cap=len(word)) == 2


def test_tree_metrics_rejects_foreign_word(capsys, anbn_file):
    code, _, err = run_cli(
        capsys, "tree-metrics", "--grammar", anbn_file, "--word", "aab"
    )
    assert code == 1
    assert "not in the language" in err


def test_classify_output(capsys, tmp_path):
    grammar = tmp_path / "red.cfg"
    grammar.write_text("S -> A B\nA -> a | a A\nB -> b\n")
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--grammar",
        str(grammar),
        "--partition",
        "A,B/S",
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["ultralinear"] == "true"
    assert lines["reduced_form"] == "true"
    assert lines["k"] == "1"
    assert lines["expansive"] == "-"


def test_classify_negative_samples_is_a_usage_error(capsys, anbn_file, tmp_path):
    # it used to print a full report with sampled_trees: 0 and exit 0; the
    # grammar named here does not exist, so the check runs before reading it
    missing = str(tmp_path / "missing.cfg")
    code, out, err = run_cli(capsys, "classify", "--grammar", missing, "--samples", "-1")
    assert (code, out, err) == (2, "", "--samples must be nonnegative, got -1\n")
    code, out, err = run_cli(capsys, "classify", "--grammar", anbn_file, "--samples", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "sampled_trees: 0"


@pytest.mark.parametrize("partition", ["/S", "S/", "S//"])
def test_classify_empty_partition_level_is_an_input_error(capsys, anbn_file, partition):
    code, out, err = run_cli(capsys, "classify", "--grammar", anbn_file, "--partition", partition)
    level = partition.split("/").index("")
    assert (code, out, err) == (1, "", "error: partition level %d is empty\n" % level)


def test_classify_partition_of_commas_still_misses_the_start(capsys, anbn_file):
    code, out, err = run_cli(capsys, "classify", "--grammar", anbn_file, "--partition", ",")
    assert (code, out, err) == (1, "", "error: partition misses nonterminals: ['S']\n")


def test_classify_empty_partition_is_a_partition(capsys, anbn_file):
    # it used to be read as no partition at all, and exited 0
    code, out, err = run_cli(capsys, "classify", "--grammar", anbn_file, "--partition", "")
    assert (code, out, err) == (1, "", "error: partition misses nonterminals: ['S']\n")


def test_measure_rho_two_cycle_csv(capsys, anbn_file):
    code, out, _ = run_cli(
        capsys,
        "measure-rho",
        "--grammar",
        anbn_file,
        "--strategy",
        "two-cycle",
        "--pairs",
        "2:3,3:4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,exhaustive,witness_word,automaton_id"
    assert lines[1] == "5,12,false,aaaaaabbbbbb,two_cycle_2_3"
    assert lines[2] == "7,24,false,aaaaaaaaaaaabbbbbbbbbbbb,two_cycle_3_4"


@pytest.mark.parametrize(
    "argv",
    [
        ["--strategy", "exhaustive", "--n-min", "2", "--n-max", "1"],
        ["--strategy", "random", "--n-max", "-1"],
        ["--strategy", "random", "--count", "-3"],
    ],
)
def test_measure_rho_usage_errors(capsys, anbn_file, argv):
    # each used to print a bare header or an empty row and exit 0
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", anbn_file, *argv)
    assert code == 2
    assert out == ""
    assert "--count must be nonnegative, and --n-max 0 or at least --n-min" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--strategy", "two-cycle"], "--pairs is required for the two-cycle strategy"),
        (["--strategy", "two-cycle", "--pairs", "2:x"], "--pairs must be comma-separated p:q"),
        (["--strategy", "two-cycle", "--pairs", "3"], "--pairs must be comma-separated p:q"),
        (["--strategy", "two-cycle", "--pairs", "3:0"], "--pairs must be comma-separated p:q"),
        (["--strategy", "two-cycle", "--pairs", "2:3,-1:4"], "--pairs must be comma-separated p:q"),
        (["--strategy", "random", "--n-min", "0"], "--n-min must be at least 1, got 0"),
        (["--strategy", "exhaustive", "--n-min", "-2"], "--n-min must be at least 1, got -2"),
        (["--strategy", "random", "--density", "1.5"], "--density must be between 0 and 1"),
        (["--strategy", "random", "--density", "-1"], "--density must be between 0 and 1"),
    ],
)
def test_measure_rho_checks_its_arguments_before_writing(capsys, anbn_file, argv, message):
    # each used to print the CSV header first, and then fail or run
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", anbn_file, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--strategy", "exhaustive", "--budget", "-1"],
            "--budget must be nonnegative, got -1",
        ),
        (["--strategy", "random", "--budget", "-5"], "--budget must be nonnegative, got -5"),
        (
            ["--strategy", "exhaustive", "--n-min", "4"],
            "--n-min and --n-max must be at most --cap-exhaustive-n (3), got 4",
        ),
        (
            ["--strategy", "exhaustive", "--n-min", "1", "--n-max", "4"],
            "--n-min and --n-max must be at most --cap-exhaustive-n (3), got 4",
        ),
        (
            ["--strategy", "exhaustive", "--n-max", "2", "--cap-exhaustive-n", "1"],
            "--n-min and --n-max must be at most --cap-exhaustive-n (1), got 2",
        ),
    ],
)
def test_measure_rho_checks_budget_and_exhaustive_cap_before_writing(
    capsys, anbn_file, argv, message
):
    # each used to print the CSV header (and, for n=1-4, the rows of n=1-3)
    # before `error: ...` and exit 1
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", anbn_file, *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_measure_rho_checks_the_exhaustive_alphabet_before_writing(capsys, tmp_path):
    # three letters: it used to print the CSV header before the error
    path = tmp_path / "abc.cfg"
    path.write_text("S -> a S b | c\n")
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", str(path),
                             "--strategy", "exhaustive")
    assert (code, out) == (1, "")
    assert err == "error: exhaustive enumeration is guarded to alphabets of size <= 2\n"
    # other strategies sweep it
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", str(path),
                             "--strategy", "random", "--count", "20")
    assert (code, err) == (0, "") and out.splitlines()[1].startswith("1,1,false,c,")


def test_measure_rho_cap_bounds_only_exhaustive_sweeps(capsys, anbn_file):
    argv = ["--strategy", "random", "--n-min", "4", "--n-max", "5", "--count", "5"]
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", anbn_file, *argv)
    assert (code, err) == (0, "")
    assert [row.split(",")[0] for row in out.splitlines()] == ["n", "4", "5"]


def test_measure_rho_fit_slope(capsys, anbn_file):
    code, out, err = run_cli(
        capsys,
        "measure-rho",
        "--grammar",
        anbn_file,
        "--strategy",
        "two-cycle",
        "--pairs",
        "2:3,3:4,3:5,4:5,5:6,5:7",
        "--fit",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "5,12,false,%s,two_cycle_2_3" % ("a" * 6 + "b" * 6),
        "7,24,false,%s,two_cycle_3_4" % ("a" * 12 + "b" * 12),
        "8,30,false,%s,two_cycle_3_5" % ("a" * 15 + "b" * 15),
        "9,40,false,%s,two_cycle_4_5" % ("a" * 20 + "b" * 20),
        "11,60,false,%s,two_cycle_5_6" % ("a" * 30 + "b" * 30),
        "12,70,false,%s,two_cycle_5_7" % ("a" * 35 + "b" * 35),
    ]
    assert err == "# loglog_slope=2.0262\n"


def test_measure_rho_fit_with_too_few_sizes_says_why(capsys, anbn_file):
    code, out, err = run_cli(
        capsys, "measure-rho", "--grammar", anbn_file, "--strategy", "random",
        "--n-min", "2", "--n-max", "3", "--count", "20", "--fit",
    )
    assert code == 0
    assert out.splitlines() == [
        "n,value,exhaustive,witness_word,automaton_id",
        "2,2,false,ab,random_s0_12",
        "3,2,false,ab,random_s0_10",
    ]
    assert err == "# loglog_slope: need at least four points, got 2\n"


def test_measure_rho_fit_with_one_size_says_why(capsys, anbn_file):
    code, out, err = run_cli(
        capsys, "measure-rho", "--grammar", anbn_file, "--strategy", "two-cycle",
        "--pairs", "2:5,3:4,1:6,4:3", "--fit",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "7,20,false,%s,two_cycle_2_5" % ("a" * 10 + "b" * 10),
        "7,24,false,%s,two_cycle_3_4" % ("a" * 12 + "b" * 12),
        "7,12,false,%s,two_cycle_1_6" % ("a" * 6 + "b" * 6),
        "7,24,false,%s,two_cycle_4_3" % ("a" * 12 + "b" * 12),
    ]
    assert err == "# loglog_slope: all sizes are equal; slope is undefined\n"


def test_measure_rho_deterministic_across_workers(capsys, anbn_file):
    argv = [
        "measure-rho",
        "--grammar",
        anbn_file,
        "--strategy",
        "random",
        "--n-min",
        "2",
        "--n-max",
        "3",
        "--count",
        "12",
        "--seed",
        "7",
    ]
    _, serial, _ = run_cli(capsys, *argv)
    _, serial_again, _ = run_cli(capsys, *argv)
    _, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
    assert serial == serial_again == parallel


def test_bounds_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds",
        "--family",
        "dimension",
        "--nonterminals",
        "3",
        "--degree",
        "2",
        "--n-min",
        "1",
        "--n-max",
        "2",
    )
    assert code == 0
    assert out.splitlines() == ["n,bound", "1,9", "2,144"]


@pytest.mark.parametrize("argv", [
    ["--nonterminals", "4", "--degree", "-1", "--n-max", "2"],  # printed floats
    ["--nonterminals", "4", "--degree", "-1", "--n-min", "0", "--n-max", "1"],  # 0 ** -1
    ["--nonterminals", "0", "--degree", "-1", "--n-max", "1"],
])
def test_bounds_negative_degree_is_an_error_before_the_header(capsys, argv):
    code, out, err = run_cli(capsys, "bounds", "--family", "dimension", *argv)
    assert (code, out) == (1, "")
    assert err == "error: the nonterminal count and the degree must be nonnegative\n"


def test_bounds_negative_n_min_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "--family", "linear", "--n-min", "-1",
                             "--n-max", "2")
    assert (code, out, err) == (2, "", "--n-min must be nonnegative, got -1\n")
    code, out, err = run_cli(capsys, "bounds", "--family", "ultralinear", "--degree", "0",
                             "--n-min", "0", "--n-max", "2")
    assert (code, out, err) == (0, "n,bound\n0,1\n1,1\n2,1\n", "")


def test_bounds_negative_constant_is_an_error_before_the_header(capsys):
    # it used to print negative "upper bounds": 1,-2 and 2,-8
    code, out, err = run_cli(capsys, "bounds", "--family", "linear", "--constant", "-2",
                             "--n-max", "2")
    assert (code, out, err) == (1, "", "error: the constant must be nonnegative, got -2\n")
    code, out, err = run_cli(capsys, "bounds", "--family", "linear", "--constant", "0",
                             "--n-max", "1")
    assert (code, out, err) == (0, "n,bound\n1,0\n", "")


def test_bounds_n_max_below_n_min_is_a_usage_error(capsys):
    # it used to print a bare header and exit 0
    code, out, err = run_cli(capsys, "bounds", "--family", "linear", "--n-min", "5",
                             "--n-max", "2")
    assert (code, out, err) == (2, "", "--n-max must be at least --n-min (5), got 2\n")
    code, out, err = run_cli(capsys, "bounds", "--family", "linear", "--n-min", "2",
                             "--n-max", "2")
    assert (code, out, err) == (0, "n,bound\n2,4\n", "")


@pytest.mark.parametrize("cap", ["-1", "0", "1"])
def test_selftest_osc_cap_below_two_is_a_usage_error(capsys, cap):
    # it used to report the brute-force check as passed after comparing no
    # word (-1) or only the empty word (0, 1)
    code, out, err = run_cli(capsys, "selftest", "--osc-cap", cap)
    assert (code, out, err) == (2, "", "--osc-cap must be at least 2, got %s\n" % cap)


def test_selftest_smallest_osc_cap(capsys):
    code, out, err = run_cli(capsys, "selftest", "--osc-cap", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "ok - oscillation agrees with brute force"
    assert out.splitlines()[-1] == "0 failure(s)"


def test_measure_rho_exhaustive_rows(capsys, anbn_file):
    argv = ["measure-rho", "--grammar", anbn_file, "--strategy", "exhaustive",
            "--n-min", "1", "--n-max", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n,value,exhaustive,witness_word,automaton_id",
        "1,2,true,ab,enum_m1_t3_i0_f0",
        "2,4,true,aabb,enum_m2_t16_i0_f0",
    ]
    # a tripped budget warns and reports the partial sweep as not exhaustive
    code, out, err = run_cli(capsys, *argv, "--budget", "5")
    assert code == 0
    assert err == "warning: enumeration budget of 5 automata exceeded at n=2\n"
    assert out.splitlines()[1:] == [
        "1,2,true,ab,enum_m1_t3_i0_f0",
        "2,2,false,ab,enum_m1_t3_i0_f0",
    ]


def test_measure_rho_budget_inside_a_transition_set(capsys, anbn_file):
    # 1,190 ends inside the set q0 -a-> q0 at n=3, after 13 of its 29 automata
    code, out, err = run_cli(capsys, "measure-rho", "--grammar", anbn_file, "--strategy",
                             "exhaustive", "--n-min", "3", "--n-max", "3", "--budget", "1190")
    assert (code, err) == (0, "warning: enumeration budget of 1190 automata exceeded at n=3\n")
    assert out.splitlines()[1:] == ["3,4,false,aabb,enum_m2_t16_i0_f0"]


def test_datalog_eval(capsys, tmp_path):
    program = tmp_path / "desc.dl"
    program.write_text(EXAMPLE_PROGRAM)
    graph = tmp_path / "family.tsv"
    graph.write_text(CHILD_GRAPH_TSV)
    code, out, _ = run_cli(
        capsys, "datalog-eval", "--program", str(program), "--graph", str(graph)
    )
    assert code == 0
    assert out.splitlines() == ["1\t2", "1\t3", "2\t3"]


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("S -> $\n")
    code, _, err = run_cli(capsys, "cnf", "--grammar", str(bad))
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["member", "--grammar"])
    assert exc.value.code == 2


def test_module_entry_point(anbn_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ratindex", "member", "--grammar", anbn_file,
         "--word", "ab"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def test_selftest_runs_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "ratindex", "selftest", "--osc-cap", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_shortest_and_reach_golden_on_a_tie_rich_graph(capsys, tmp_path):
    # 24 nodes, 48 edges: 788 realizable triples, 400 related pairs, and
    # many start pairs and splits tied at each minimum length
    grammar = tmp_path / "dyck.cfg"
    grammar.write_text("S -> S S | a S b | a b\n")
    edges = two_regular_dyck_graph(3, 24)
    graph = tmp_path / "dyck.tsv"
    graph.write_text(edges)
    code, out, err = run_cli(
        capsys, "shortest", "--grammar", str(grammar), "--graph", str(graph), "--witness"
    )
    assert (code, out, err) == (0, "2\tab\npath\tv1 v16 v7\n", "")
    expected = {
        "v1": (1, "", "L ∩ K = ∅\n"),
        "v5": (0, "10\taabbaabbab\npath\tv0 v3 v20 v4 v23 v16 v0 v6 v8 v5 v5\n", ""),
        "v11": (0, "4\taabb\npath\tv0 v3 v14 v20 v11\n", ""),
        "v17": (0, "10\taabababbab\npath\tv0 v3 v20 v4 v1 v19 v11 v9 v2 v21 v17\n", ""),
    }
    for accepting, golden in expected.items():
        nfa = tmp_path / ("to_%s.nfa" % accepting)
        nfa.write_text("initial: v0\naccepting: %s\n%s" % (accepting, edges))
        found = run_cli(
            capsys, "shortest", "--grammar", str(grammar), "--nfa", str(nfa), "--witness"
        )
        assert found == golden
    code, out, err = run_cli(capsys, "reach", "--grammar", str(grammar), "--graph", str(graph))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 400
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "88e451ec647bcb5d572cc1f37cb7ff57ac6bb51e715e62fb9ed6e9510e03af02"
    )
