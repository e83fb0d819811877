import hashlib
import itertools
import random

import pytest

from ratindex.classify import superlinear_core
from ratindex.grammar import (
    CNFGrammar,
    DuplicateSymbolError,
    EmptyLanguageError,
    Grammar,
    GrammarSyntaxError,
    LEAST_WORDS_KEPT,
    Production,
    SymbolNotInAlphabetError,
    UndeclaredSymbolError,
    _drop_nullable,
    cyk_membership,
    cyk_parse,
    format_word,
    generating_nonterminals,
    grammar_to_text,
    is_valid_parse_tree,
    nullable_nonterminals,
    parse_grammar,
    parse_word,
    to_cnf,
)
from ratindex.intersection import bar_hillel, extract_witness, shortest_words
from ratindex.sampling import (
    min_heights,
    random_cnf_grammar,
    random_grammar,
    random_nfa,
    random_parse_tree,
)
from ratindex.trees import EPSILON, ParseTree

from generators import random_superlinear_grammar
from oracles import (
    cyk_parse_by_closure,
    cyk_tree_by_chart,
    derivable_words,
    deriving_by_counting,
    derives,
    drop_nullable_by_masks,
    fixed_lengths_by_rescan,
    is_valid_parse_tree_by_stack,
    least_words_by_rescan,
    min_heights_by_rescan,
    superlinear_core_by_rescan,
)


def test_parse_basic(anbn):
    assert anbn.start == "S"
    assert anbn.terminals == {"a", "b"}
    assert anbn.nonterminals == {"S"}
    assert anbn.productions == (
        Production("S", ("a", "S", "b")),
        Production("S", ("a", "b")),
    )


def test_parse_epsilon_body():
    g = parse_grammar("S -> \n")
    assert g.productions == (Production("S", ()),)


def test_parse_quoted_terminals_and_comments():
    g = parse_grammar("# top\nS -> 'Child' x | S S   # trailing\n")
    assert g.terminals == {"Child", "x"}


def test_parse_undeclared_nonterminal():
    with pytest.raises(UndeclaredSymbolError):
        parse_grammar("S -> A b\n")


def test_parse_duplicate_symbol():
    with pytest.raises(DuplicateSymbolError):
        parse_grammar("S -> 'S' a\n")


def test_parse_syntax_error_position():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> a $ b\n")
    assert err.value.line == 1
    assert err.value.column == 8


def test_parse_missing_arrow():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S a b\n")


def test_grammar_text_roundtrip(anbn):
    assert parse_grammar(grammar_to_text(anbn)) == anbn


def test_to_cnf_accepts_derived_words(anbn, anbn_cnf):
    # oracle: exhaustive recognition on the original grammar up to length 6
    expected = derivable_words(anbn, 6)
    assert ("a", "a", "b", "b") in expected
    for length in range(7):
        for word in _all_words(("a", "b"), length):
            assert cyk_membership(anbn_cnf, word) == (word in expected)


def _all_words(letters, length):
    if length == 0:
        yield ()
        return
    for rest in _all_words(letters, length - 1):
        for a in letters:
            yield (a,) + rest


def test_to_cnf_idempotent_on_cnf_grammar():
    g = parse_grammar("S -> A B\nA -> a\nB -> b\n")
    cnf = to_cnf(g)
    assert set(cnf.productions) == set(g.productions)
    assert not cnf.epsilon_at_start
    assert Production("A", ("a",)) in cnf.productions


def test_to_cnf_empty_language():
    g = Grammar(
        frozenset({"a"}), frozenset({"S"}), (Production("S", ("S",)),), "S"
    )
    with pytest.raises(EmptyLanguageError):
        to_cnf(g)


def test_to_cnf_epsilon_language():
    g = parse_grammar("S -> a S |\n")
    cnf = to_cnf(g)
    assert cnf.epsilon_at_start
    assert cyk_membership(cnf, ())
    assert cyk_membership(cnf, "aaa")
    # fresh start symbol never recurs
    for prod in cnf.productions:
        assert cnf.start not in prod.rhs


def test_to_cnf_epsilon_only_language():
    cnf = to_cnf(parse_grammar("S -> \n"))
    assert cnf.epsilon_at_start
    assert cyk_membership(cnf, ())
    assert cnf.terminals == frozenset()
    assert cnf.productions == (Production(cnf.start, ()),)


# Production order fixes the production ids that the closure's tie rule
# reads, so the exact CNF text is pinned, not only its language.
@pytest.mark.parametrize(
    "text, expected",
    [
        (
            # the fresh start skips the taken name S0
            "S -> a S b |\nS0 -> a\n",
            "S01 -> T_a X | T_a T_b | \n"
            "X -> S T_b\n"
            "S -> T_a X1 | T_a T_b\n"
            "X1 -> S T_b\n"
            "T_a -> a\n"
            "T_b -> b\n",
        ),
        (
            # binarization helpers skip X and X1, the wrapper skips T_a
            "S -> X a X1 b T_a c | a\nX -> a\nX1 -> b\nT_a -> c\n",
            "S -> X X2 | a\n"
            "X2 -> T_a1 X3\n"
            "X3 -> X1 X4\n"
            "X4 -> T_b X5\n"
            "X5 -> T_a T_c\n"
            "X -> a\n"
            "X1 -> b\n"
            "T_a -> c\n"
            "T_a1 -> a\n"
            "T_b -> b\n"
            "T_c -> c\n",
        ),
        (
            "A -> B | a\nB -> C | b\nC -> A | c a b\n",
            "A -> a | b | T_c X\nX -> T_a T_b\nT_c -> c\nT_a -> a\nT_b -> b\n",
        ),
        (
            "S -> a b | a b | S S\nS -> a b\n",
            "S -> T_a T_b | S S\nT_a -> a\nT_b -> b\n",
        ),
    ],
)
def test_to_cnf_golden(text, expected):
    assert grammar_to_text(to_cnf(parse_grammar(text))) == expected


def test_cyk_membership_examples(anbn_cnf):
    assert cyk_membership(anbn_cnf, "aabb")
    assert not cyk_membership(anbn_cnf, "aab")
    assert not cyk_membership(anbn_cnf, ())


def test_cyk_rejects_foreign_symbols(anbn_cnf):
    with pytest.raises(SymbolNotInAlphabetError):
        cyk_membership(anbn_cnf, "abc")


def test_cyk_parse_tree_is_valid(anbn, anbn_cnf):
    tree = cyk_parse(anbn_cnf, "aaabbb")
    assert tree is not None
    assert tree.yield_word() == ("a", "a", "a", "b", "b", "b")
    assert is_valid_parse_tree(anbn_cnf, tree, require_start=True)


def test_cyk_parse_rejects_words_outside_the_language(anbn_cnf):
    for word in ("aab", "ba", "abab", ""):
        assert cyk_parse(anbn_cnf, word) is None


def test_cyk_parse_epsilon():
    cnf = to_cnf(parse_grammar("S -> a S |\n"))
    tree = cyk_parse(cnf, ())
    assert tree is not None
    assert tree.children[0].label == EPSILON
    assert tree.yield_word() == ()


def test_cyk_parse_matches_the_closure_parse_on_random_grammars():
    # Each grammar is asked about random words over its terminals, most of
    # them outside the language, and about the yields of random parse
    # trees, all inside it.
    rng = random.Random(22)
    found = {True: 0, False: 0}
    with_epsilon = 0
    for k in range(40):
        g = random_cnf_grammar(
            rng, max_nonterminals=4, max_terminals=2, epsilon_weight=0.3 if k % 2 else 0.05
        )
        with_epsilon += g.epsilon_at_start
        alphabet = sorted(g.terminals)
        words = [tuple(rng.choices(alphabet, k=rng.randint(0, 9))) for _ in range(8)]
        trees = (random_parse_tree(g, rng, max_depth=7) for _ in range(8))
        words += [tree.yield_word() for tree in trees if tree is not None]
        for word in words:
            tree = cyk_parse(g, word)
            assert tree == cyk_parse_by_closure(g, word), (g, word)
            if tree is not None:
                assert tree.yield_word() == word
                assert is_valid_parse_tree(g, tree, require_start=True)
            found[tree is not None] += 1
    assert found[True] >= 250 and found[False] >= 200 and sum(found.values()) >= 500
    assert with_epsilon >= 5


def test_cyk_parse_trees_match_the_unshared_chart_rebuild():
    # The chart reference builds new nodes for every occurrence; the parse
    # shares one leaf per terminal, and must not differ from it otherwise.
    rng = random.Random(27)
    found = 0
    for k in range(60):
        g = random_cnf_grammar(
            rng, max_nonterminals=4, max_terminals=2, epsilon_weight=0.3 if k % 2 else 0.05
        )
        alphabet = sorted(g.terminals)
        words = [tuple(rng.choices(alphabet, k=rng.randint(0, 9))) for _ in range(6)]
        trees = (random_parse_tree(g, rng, max_depth=7) for _ in range(6))
        words += [tree.yield_word() for tree in trees if tree is not None]
        for word in words:
            tree = cyk_parse(g, word)
            reference = cyk_tree_by_chart(g, word)
            assert tree == reference and str(tree) == str(reference), (g, word)
            found += tree is not None
    assert found >= 300


def test_cnf_agreement_on_random_grammars(rng):
    # CNF correctness property: membership after conversion matches the
    # independent chart recognizer on the source grammar.
    for _ in range(12):
        g = random_grammar(rng, max_nonterminals=3, max_terminals=2)
        cnf = to_cnf(g)
        expected = derivable_words(g, 5)
        for length in range(6):
            for word in _all_words(tuple(sorted(g.terminals)), length):
                assert cyk_membership(cnf, word) == (word in expected), (
                    g,
                    word,
                )


def test_cnf_invariants_on_random_grammars(rng):
    for _ in range(25):
        cnf = to_cnf(random_grammar(rng))
        assert isinstance(cnf, CNFGrammar)  # constructor re-validates shape


def test_parse_word_forms(anbn):
    assert parse_word(anbn, "aabb") == ("a", "a", "b", "b")
    assert parse_word(anbn, "a b") == ("a", "b")
    assert parse_word(anbn, "") == ()
    assert format_word(("a", "b")) == "ab"
    assert format_word(()) == ""


def test_production_str():
    assert str(Production("S", ("a", "S"))) == "S -> a S"
    assert str(Production("S", ())) == "S -> " + EPSILON


def wide_grammar(rng: random.Random) -> Grammar:
    """A random grammar with a nonempty language whose nonterminals other
    than S each have one or more terminal rules: products of them give
    more shortest words than ``least_words`` keeps."""
    while True:
        nonterminals = ("S", "A", "B", "C")[: rng.randint(1, 4)]
        letters = "abcd"[: rng.randint(1, 4)]
        productions = []
        for nt in nonterminals:
            if nt != "S":
                chosen = rng.sample(letters, rng.randint(1, len(letters)))
                productions += [Production(nt, (a,)) for a in chosen]
            for _ in range(rng.randint(0 if nt != "S" else 1, 2)):
                if rng.random() < 0.05:
                    productions.append(Production(nt, ()))
                else:
                    body = tuple(
                        rng.choice(nonterminals[1:] or letters)
                        if rng.random() < 0.7 else rng.choice(letters)
                        for _ in range(rng.randint(2, 3))
                    )
                    productions.append(Production(nt, body))
        g = Grammar(frozenset(letters), frozenset(nonterminals),
                    tuple(dict.fromkeys(productions)), "S")
        try:
            to_cnf(g)
        except EmptyLanguageError:
            continue
        return g


def test_least_words_match_the_first_words_of_least_length(rng):
    # brute force: every word over the alphabet, length 0, 1, 2, ... until
    # one is in the language
    epsilon = over_cap = longer = 0
    for k in range(400):
        g = random_grammar(rng) if k % 2 else wide_grammar(rng)
        letters = sorted(g.terminals)
        for m in itertools.count():
            least = [w for w in itertools.product(letters, repeat=m) if derives(g, w)]
            if least:
                break
        words = to_cnf(g).least_words
        assert words == tuple(least[:LEAST_WORDS_KEPT])
        assert all(derives(g, w) for w in words)
        epsilon += m == 0
        over_cap += len(least) > LEAST_WORDS_KEPT
        longer += m >= 3
    assert epsilon >= 40 and over_cap >= 10 and longer >= 50


def test_least_words_examples():
    assert to_cnf(parse_grammar("S -> S S | a S b | c S d | a b | c d\n")).least_words == (
        ("a", "b"), ("c", "d"),
    )
    assert to_cnf(parse_grammar("S -> a S b S |\n")).least_words == ((),)
    # 3^3 words of length 3; the first 8 in order
    g = to_cnf(parse_grammar("S -> A A A | a a a a\nA -> c | b | a\n"))
    assert g.least_words == tuple(itertools.islice(itertools.product("abc", repeat=3), 8))


def test_rule_index_lists_every_rule_once_per_role(rng):
    for _ in range(200):
        g = random_cnf_grammar(rng, max_nonterminals=4, max_terminals=3)
        index = g.rule_index
        assert g.rule_index is index  # computed once per grammar
        by_label, by_head, by_child = index
        # each label's terminal rules, in production order
        assert by_label == {
            a: [(pid, p.lhs) for pid, p in enumerate(g.productions) if p.rhs == (a,)]
            for a in {p.rhs[0] for p in g.productions if len(p.rhs) == 1}
        }
        binary = [(pid, p) for pid, p in enumerate(g.productions) if len(p.rhs) == 2]
        # each binary rule once by head, in production order
        assert by_head == {
            head: [(pid, *p.rhs) for pid, p in binary if p.lhs == head]
            for head in {p.lhs for _pid, p in binary}
        }
        # and twice by child: under B and under C for A -> B C, twice under
        # B for A -> B B, in production order
        listed = []
        for child, rules in by_child.items():
            ids = []
            for parent, partner, on_right in rules:
                body = (child, partner) if on_right else (partner, child)
                ids.append(g.productions.index((parent, body)))
            assert ids == sorted(ids)
            listed += ids
        assert sorted(listed) == sorted(2 * [pid for pid, _p in binary])


def test_drop_nullable_matches_the_mask_enumeration():
    # Bodies of up to 10 symbols, about half of them nullable and some
    # repeated, so that many masks give one body.
    rng = random.Random(30)
    nullable = frozenset("ABC")
    repeats = 0
    for _ in range(5000):
        rhs = tuple(rng.choices("ABCDab", k=rng.randint(0, 10)))
        expected = drop_nullable_by_masks(rhs, nullable)
        assert list(_drop_nullable(rhs, nullable)) == expected, rhs
        repeats += len(expected) < 2 ** sum(s in nullable for s in rhs)
    assert repeats >= 1500


def test_drop_nullable_of_one_repeated_symbol_drops_one_more_at_a_time():
    a200 = ("A",) * 200
    assert list(_drop_nullable(a200, frozenset("A"))) == [("A",) * k for k in range(200, -1, -1)]
    # A^50 b A^50: 51 * 51 bodies, each once, A^50 b A^50 first and b last
    bodies = list(_drop_nullable(("A",) * 50 + ("b",) + ("A",) * 50, frozenset("A")))
    assert len(bodies) == len(set(bodies)) == 51 * 51
    assert bodies[0] == ("A",) * 50 + ("b",) + ("A",) * 50 and bodies[-1] == ("b",)


def test_to_cnf_output_is_pinned_on_random_grammars():
    # Production order fixes production ids, and with them tie-breaking in
    # every product, so the digest covers it along with the nonterminals,
    # the start symbol and epsilon_at_start.
    rng = random.Random(30)
    found = []
    for _ in range(2000):
        g = random_grammar(
            rng, max_nonterminals=5, max_terminals=3, max_body=6, epsilon_weight=0.3
        )
        cnf = to_cnf(g)
        found.append(repr(
            (cnf.productions, sorted(cnf.nonterminals), cnf.start, cnf.epsilon_at_start)
        ))
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == (
        "5acb469c3752a7c89599116c8c530d10eb0dc2a99856af246b56ed2506e4ded2"
    )


def _nodes_with_paths(tree):
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (k,), child) for k, child in enumerate(node.children))


def _replace(tree, path, node):
    if not path:
        return node
    children = list(tree.children)
    children[path[0]] = _replace(children[path[0]], path[1:], node)
    return ParseTree(tree.label, children)


def _mutants(g, tree, rng):
    """Trees one edit away from ``tree``: a relabelled node, a dropped or an
    added child, an ``ε`` leaf beside a sibling, an ``ε`` leaf under a head
    with no ε rule, and an ``ε`` root."""
    nodes = list(_nodes_with_paths(tree))
    inner = [(path, node) for path, node in nodes if node.children]
    labels = sorted(g.terminals | g.nonterminals | {EPSILON})
    terminals = sorted(g.terminals)
    no_epsilon = [
        (path, node) for path, node in nodes
        if node.label in g.nonterminals and (node.label, ()) not in g.productions
    ]
    out = [ParseTree(EPSILON)]
    path, node = rng.choice(nodes)
    out.append(_replace(tree, path, ParseTree(rng.choice(labels), node.children)))
    if inner:
        path, node = rng.choice(inner)
        k = rng.randrange(len(node.children))
        out.append(_replace(tree, path, ParseTree(
            node.label, node.children[:k] + node.children[k + 1:]
        )))
        for leaf in ParseTree(rng.choice(terminals)), ParseTree(EPSILON):
            k = rng.randint(0, len(node.children))
            out.append(_replace(tree, path, ParseTree(
                node.label, node.children[:k] + (leaf,) + node.children[k:]
            )))
    if no_epsilon:
        path, node = rng.choice(no_epsilon)
        out.append(_replace(tree, path, ParseTree(node.label, (ParseTree(EPSILON),))))
    return out


def _check_against_the_stack_walk(g, tree, verdicts):
    """The two checks agree, except on a tree with an ``ε`` node that has
    children, which only the iter_nodes check rejects for sure."""
    epsilon_above = any(n.label == EPSILON and n.children for n in tree.iter_nodes())
    for require_start in (False, True):
        found = is_valid_parse_tree(g, tree, require_start)
        if epsilon_above:
            assert not found, (g, tree)
        else:
            assert found == is_valid_parse_tree_by_stack(g, tree, require_start), (g, tree)
        verdicts[found] += 1


def test_is_valid_parse_tree_agrees_with_the_stack_walk():
    rng = random.Random(31)
    valid = {True: 0, False: 0}
    mutated = {True: 0, False: 0}
    sources = {"sampled": 0, "cyk": 0, "witness": 0}
    for k in range(60):
        g = random_grammar(rng, max_nonterminals=4, max_terminals=3, epsilon_weight=0.3)
        cnf = to_cnf(g)
        trees = [(g, random_parse_tree(g, rng, max_depth=6), "sampled") for _ in range(5)]
        for cnf_tree in (random_parse_tree(cnf, rng, max_depth=7) for _ in range(5)):
            if cnf_tree is not None:
                trees.append((cnf, cyk_parse(cnf, cnf_tree.yield_word()), "cyk"))
        product = bar_hillel(cnf, random_nfa(rng, 3, sorted(cnf.terminals), 0.4))
        table = shortest_words(product)
        for triple in sorted(table.realizable())[:5]:
            trees.append((cnf, extract_witness(product, table, triple).tree, "witness"))
        for grammar, tree, source in trees:
            if tree is None:
                continue
            sources[source] += 1
            assert is_valid_parse_tree(grammar, tree)
            _check_against_the_stack_walk(grammar, tree, valid)
            for mutant in _mutants(grammar, tree, rng):
                _check_against_the_stack_walk(grammar, mutant, mutated)
    assert min(sources.values()) >= 200, sources
    assert valid[False] >= 80  # witnesses rooted away from the start
    assert mutated[False] >= 5000 and mutated[True] >= 500, mutated


def test_is_valid_parse_tree_checks_below_an_epsilon_child():
    g = parse_grammar("S -> a S |\n")
    assert is_valid_parse_tree(g, ParseTree("S", (ParseTree(EPSILON),)), require_start=True)
    for below in ParseTree("zzz"), ParseTree("a"), ParseTree("S", (ParseTree(EPSILON),)):
        tree = ParseTree("S", (ParseTree(EPSILON, (below,)),))
        assert not is_valid_parse_tree(g, tree)
        assert not is_valid_parse_tree(g, tree, require_start=True)


def test_grammar_analyses_match_the_rescanning_references():
    # Seeded grammars with ε and unit rules, their CNFs, and grammars with a
    # linear core: the one-pass least fixpoints and the worklist core agree
    # with the counting worklist and the rescans they replace.
    rng = random.Random(34)
    grammars = []
    for _ in range(2000):
        g = random_grammar(
            rng, max_nonterminals=5, max_terminals=3, max_body=4, epsilon_weight=0.25
        )
        grammars += [g, to_cnf(g)]
    grammars += [random_superlinear_grammar(rng) for _ in range(500)]
    for g in grammars:
        assert generating_nonterminals(g) == deriving_by_counting(g, g.terminals)
        assert nullable_nonterminals(g) == deriving_by_counting(g, frozenset())
        assert min_heights(g) == min_heights_by_rescan(g)
        assert superlinear_core(g) == superlinear_core_by_rescan(g)
        if isinstance(g, CNFGrammar):
            assert g.least_words == least_words_by_rescan(g)
            assert g.fixed_lengths == fixed_lengths_by_rescan(g)
