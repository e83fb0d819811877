import pytest

from ratindex import datalog
from ratindex.classify import is_linear
from ratindex.datalog import (
    DatalogSyntaxError,
    NameCollisionError,
    NonBinaryPredicateError,
    NonChainRuleError,
    UnknownEdbLabelError,
    chain_to_cfg,
    evaluate,
    parse_chain_program,
)
from ratindex.grammar import Production, to_cnf
from ratindex.graphs import LabeledGraph

from conftest import EXAMPLE_PROGRAM
from generators import random_graph
from oracles import naive_datalog_fixpoint


def test_parse_descendant_program():
    program = parse_chain_program(EXAMPLE_PROGRAM)
    assert len(program.rules) == 2
    assert program.query == "Desc"
    assert program.idb == {"Desc", "Child"}
    assert program.edb == {"child"}
    assert program.edge_predicates == {"Child"}


def test_parse_rejects_swapped_variables():
    with pytest.raises(NonChainRuleError):
        parse_chain_program("P(x, y) :- Q(y, x).")


def test_parse_rejects_non_binary():
    with pytest.raises(NonBinaryPredicateError):
        parse_chain_program("P(x, y, z) :- Q(x, y).")
    with pytest.raises(NonBinaryPredicateError):
        parse_chain_program("P(x, y) :- Q(x).")


def test_parse_rejects_broken_chain():
    with pytest.raises(NonChainRuleError):
        parse_chain_program("P(x, y) :- Q(x, z), R(u, y).")
    with pytest.raises(NonChainRuleError):
        parse_chain_program("P(x, y) :- Q(x, z), R(z, z).")
    with pytest.raises(NonChainRuleError):
        parse_chain_program("P(x, x) :- Q(x, x).")


def test_parse_rejects_garbage():
    with pytest.raises(DatalogSyntaxError):
        parse_chain_program("P(x, y)\n")
    with pytest.raises(DatalogSyntaxError):
        parse_chain_program("")


def test_query_line_optional():
    program = parse_chain_program("P(x, y) :- e(x, y).")
    assert program.query == "P"


def test_chain_to_cfg_descendant_golden():
    grammar = chain_to_cfg(parse_chain_program(EXAMPLE_PROGRAM))
    assert grammar.start == "Desc"
    assert set(grammar.productions) == {
        Production("Desc", ("Child",)),
        Production("Desc", ("Child", "Desc")),
        Production("Child", ("child",)),
    }
    assert grammar.terminals == {"child"}


def test_chain_to_cfg_wrapper_shape():
    grammar = chain_to_cfg(parse_chain_program("P(x, y) :- Edge(x, y)."))
    assert Production("P", ("Edge",)) in grammar.productions
    assert Production("Edge", ("edge",)) in grammar.productions


def test_chain_to_cfg_lowercase_edge_predicate_is_a_terminal():
    grammar = chain_to_cfg(parse_chain_program("P(x, y) :- p(x, y)."))
    assert grammar.terminals == {"p"}
    assert set(grammar.productions) == {Production("P", ("p",))}


def test_chain_to_cfg_collision():
    # a head named like the lowercased edge label clashes
    with pytest.raises(NameCollisionError):
        chain_to_cfg(
            parse_chain_program("child(x, y) :- Child(x, y).\n?- child\n")
        )


def test_evaluate_descendants(child_path_graph):
    program = parse_chain_program(EXAMPLE_PROGRAM)
    facts = evaluate(program, child_path_graph)
    assert facts == {("1", "2"), ("1", "3"), ("2", "3")}


def test_evaluate_a_query_on_a_database_predicate(child_path_graph):
    # `?- child` answers the edges labeled child, as `?- Child` does
    for name in "child", "Child":
        text = "Desc(x, y) :- P(x, y).\nDesc(x, y) :- P(x, z), Desc(z, y).\n?- P\n"
        program = parse_chain_program(text.replace("P", name))
        assert evaluate(program, child_path_graph) == {("1", "2"), ("2", "3")}


def test_evaluate_empty_graph():
    program = parse_chain_program(EXAMPLE_PROGRAM)
    graph = LabeledGraph(frozenset({"1"}), frozenset({"child"}), frozenset())
    assert evaluate(program, graph) == frozenset()


def test_evaluate_unknown_edb_label(child_path_graph):
    program = parse_chain_program("P(x, y) :- Parent(x, y).")
    with pytest.raises(UnknownEdbLabelError):
        evaluate(program, child_path_graph)


def test_evaluate_unproductive_program(child_path_graph):
    # the only rule is self-recursive, so the fixpoint is empty
    program = parse_chain_program("P(x, y) :- Child(x, z), P(z, y).")
    assert evaluate(program, child_path_graph) == frozenset()


def test_evaluate_converts_a_program_to_cnf_once(monkeypatch, child_path_graph):
    calls = []

    def counting_to_cnf(grammar):
        calls.append(grammar)
        return to_cnf(grammar)

    monkeypatch.setattr(datalog, "to_cnf", counting_to_cnf)
    program = parse_chain_program(EXAMPLE_PROGRAM)
    cycle = LabeledGraph.from_edges([("a", "child", "b"), ("b", "child", "a")])
    graphs = [child_path_graph, cycle]
    answers = [evaluate(program, graph) for graph in graphs]
    assert len(calls) == 1
    assert answers == [evaluate(parse_chain_program(EXAMPLE_PROGRAM), graph) for graph in graphs]
    assert len(calls) == 3
    # an empty language is kept too
    empty = parse_chain_program("P(x, y) :- Child(x, z), P(z, y).")
    assert [evaluate(empty, graph) for graph in graphs] == [frozenset(), frozenset()]
    assert len(calls) == 4


def test_evaluate_raises_its_input_errors_on_every_call(child_path_graph):
    # the missing labels are checked first, and a name collision is not cached
    colliding = parse_chain_program("child(x, y) :- Child(x, y).\n?- child\n")
    for _ in range(2):
        with pytest.raises(NameCollisionError):
            evaluate(colliding, child_path_graph)
    unknown = LabeledGraph.from_edges([("1", "parent", "2")])
    with pytest.raises(UnknownEdbLabelError):
        evaluate(colliding, unknown)


def test_evaluate_matches_naive_fixpoint(rng):
    program_texts = [
        EXAMPLE_PROGRAM,
        "P(x, y) :- e(x, y).\nP(x, y) :- e(x, z), P(z, y).\n?- P\n",
        "Same(x, y) :- f(x, z), Back(z, y).\nBack(x, y) :- g(x, y).\n?- Same\n",
        "T(x, y) :- e(x, z), e(z, y).\n?- T\n",
    ]
    for text in program_texts:
        program = parse_chain_program(text)
        labels = sorted(program.edb)
        for _ in range(8):
            graph = random_graph(rng, rng.randint(2, 5), labels, rng.randint(2, 8))
            assert evaluate(program, graph) == naive_datalog_fixpoint(program, graph)


def test_linearity_bridge(rng):
    # one derived predicate per body keeps the grammar linear
    program = parse_chain_program(
        "P(x, y) :- e(x, y).\nP(x, y) :- e(x, z), P(z, y).\n"
    )
    assert is_linear(chain_to_cfg(program))
