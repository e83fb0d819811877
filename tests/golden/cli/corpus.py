"""The golden CLI corpus: seeded `ratindex` invocations, their inputs, and
the expected exit code, stdout and stderr of each in ``expected.txt``.

Run as a script, it runs every entry through the installed ``ratindex``
console script under ``PYTHONHASHSEED`` 0 and 1, and exits 1 if any output
differs from ``expected.txt``.  The tests run the same entries in process
through ``cli.main``; ``regen.py`` rewrites ``expected.txt``.

Each entry is a name and an argv whose file names are the inputs below; an
entry runs in a directory that holds every input.
"""

import difflib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.txt")

# Outputs longer than this are kept as their line count and SHA-256 only.
SHOWN_LINES = 50
SHOWN_CHARS = 4000


def _perm_graph():
    """A 64-node graph with `a` edges along u -> 5u + 1 and `b` edges along
    u -> 7u + 3 (mod 64)."""
    return "".join(
        "v%d a v%d\nv%d b v%d\n" % (u, (5 * u + 1) % 64, u, (7 * u + 3) % 64) for u in range(64)
    )


def _chain_nfa():
    """An a^700 b^700 chain of 1,400 steps."""
    steps = "".join("c%d %s c%d\n" % (i, "a" if i < 700 else "b", i + 1) for i in range(1400))
    return "initial: c0\naccepting: c1400\n" + steps


def _updown_graph():
    """A 300-level up/down chain with six flat edges."""
    lines = ["u%d up u%d\nd%d down d%d\n" % (u, u + 1, u + 1, u) for u in range(300)]
    lines.append("u300 flat d300\n")
    lines += ["u%d flat d%d\n" % (37 * k % 300, 53 * k % 300) for k in range(1, 6)]
    return "".join(lines)


def _bracket_graph():
    """A seeded random 64-node graph on the letters a b c d: each node has
    one opening edge (a or c) and one closing edge (b or d), each to a
    uniformly chosen node."""
    rng = random.Random(0)
    return "".join(
        "v%d %s v%d\n" % (u, rng.choice(letters), rng.randrange(64))
        for u in range(64)
        for letters in ("ac", "bd")
    )


def _child_tree():
    """A seeded random recursive tree of 200 nodes: `child` from a uniformly
    chosen earlier node to each node."""
    rng = random.Random(2024)
    return "".join("t%d child t%d\n" % (rng.randrange(v), v) for v in range(1, 200))


def _right_chain():
    """A right-recursive chain of 305 rules, S -> E A0, A0 -> a A1, ...,
    A299 -> a A300, with one ε rule (E -> e |) and one unit rule (A300 -> B):
    its words are a^300 b and e a^300 b."""
    rules = "".join("A%d -> a A%d\n" % (i, i + 1) for i in range(300))
    return "S -> E A0\nE -> e |\n" + rules + "A300 -> B\nB -> b\n"


INPUTS = {
    "anbn.cfg": "S -> a S b | a b\n",
    # its empty word answers every automaton with an initial accepting state
    "anbn-eps.cfg": "S -> a S b |\n",
    # three letters: more than an exhaustive sweep enumerates automata over
    "acb.cfg": "S -> a S c | b\n",
    "dyck.cfg": "S -> S S | a S b | a b\n",
    "dyck2.cfg": "S -> S S | a S b | c S d | a b | c d\n",
    # its CNF pairs the two b's in the helpers X1 and X2
    "amb2m.cfg": "S -> a S b b | a b b\n",
    # long nullable bodies: the CNF lists the bodies left by dropping
    # nullable occurrences in a fixed order
    "nullable.cfg": "S -> A B A B A B A B c |\nA -> a A |\nB -> b |\n",
    "rightchain.cfg": _right_chain(),
    # loops on a and e, and b to the accepting state
    "loop.nfa": "initial: p\naccepting: q\np a p\np e p\np b q\n",
    "perm.graph": _perm_graph(),
    # four accepting states tie on length, so codes decide the shortest word
    "perm.nfa": "initial: v0\naccepting: v6 v28 v32 v48\n" + _perm_graph(),
    "chain.nfa": _chain_nfa(),
    "updown.graph": _updown_graph(),
    "brackets.graph": _bracket_graph(),
    "tree.graph": _child_tree(),
    "sg.dl": "SG(x, y) :- Flat(x, y).\nSG(x, y) :- Up(x, z1), SG(z1, z2), Down(z2, y).\n?- SG\n",
    "child.graph": "1 child 2\n2 child 3\n",
    "desc.dl": "Desc(x, y) :- Child(x, y).\nDesc(x, y) :- Child(x, z), Desc(z, y).\n?- Desc\n",
    # the query is a database predicate, spelled as its edge label or not
    "label.dl": "Desc(x, y) :- child(x, y).\nDesc(x, y) :- child(x, z), Desc(z, y).\n"
    "?- child\n",
    "wrapper.dl": "Desc(x, y) :- Child(x, y).\nDesc(x, y) :- Child(x, z), Desc(z, y).\n"
    "?- Child\n",
}


def _harmonic(levels):
    word = ""
    for _ in range(levels):
        word = "a%sb" % word
        word += word
    return word


def _measure(grammar, strategy, *args):
    return ["measure-rho", "--grammar", grammar, "--strategy", strategy, *args]


ENTRIES = {
    "selftest": ["selftest"],
    # exact rational index of a^m b^m at n = 1, 2 and 3, and of Dyck at 3
    "measure-rho-anbn-exhaustive-1-2": _measure(
        "anbn.cfg", "exhaustive", "--n-min", "1", "--n-max", "2"
    ),
    "measure-rho-anbn-exhaustive-3": _measure(
        "anbn.cfg", "exhaustive", "--n-min", "3", "--n-max", "3", "--budget", "3000000"
    ),
    "measure-rho-dyck-exhaustive-3": _measure(
        "dyck.cfg", "exhaustive", "--n-min", "3", "--n-max", "3", "--budget", "3000000"
    ),
    # a budget that ends inside a transition set: the partial row and a warning
    "measure-rho-anbn-budget-1190": _measure(
        "anbn.cfg", "exhaustive", "--n-min", "3", "--n-max", "3", "--budget", "1190"
    ),
    # the long two-cycle witnesses, of 8,174 and 33,274 symbols
    "measure-rho-anbn-two-cycle": _measure("anbn.cfg", "two-cycle", "--pairs", "61:67,127:131"),
    # seeded random sweeps; with two bracket pairs the shortest words ab and
    # cd settle automata below the floor without a product closure
    "measure-rho-dyck-random": _measure(
        "dyck.cfg", "random", "--n-min", "1", "--n-max", "6", "--count", "500", "--seed", "7"
    ),
    "measure-rho-dyck2-random": _measure(
        "dyck2.cfg", "random", "--n-min", "1", "--n-max", "6", "--count", "500", "--seed", "7"
    ),
    # sweeps of a grammar with the empty word, exhaustive and random (the
    # fit leaves out the value-0 row), two-cycle sweeps fitted, a budget of
    # no automaton, and the alphabet guard (exit 1 before the CSV header)
    "measure-rho-anbn-eps-exhaustive-1-2": _measure(
        "anbn-eps.cfg", "exhaustive", "--n-min", "1", "--n-max", "2"
    ),
    "measure-rho-anbn-eps-random-fit": _measure(
        "anbn-eps.cfg", "random", "--n-max", "4", "--count", "50", "--seed", "3", "--fit"
    ),
    "measure-rho-anbn-two-cycle-fit": _measure(
        "anbn.cfg", "two-cycle", "--pairs", "2:3,3:4,3:5,4:5,5:6", "--fit"
    ),
    "measure-rho-anbn-budget-0": _measure(
        "anbn.cfg", "exhaustive", "--n-min", "2", "--n-max", "2", "--budget", "0"
    ),
    "measure-rho-acb-exhaustive": _measure("acb.cfg", "exhaustive"),
    # usage errors are found before the CSV header: exit 2
    "measure-rho-negative-budget": _measure("anbn.cfg", "exhaustive", "--budget", "-1"),
    "measure-rho-above-cap": _measure("anbn.cfg", "exhaustive", "--n-min", "1", "--n-max", "4"),
    "bounds-negative-n-min": "bounds --family linear --n-min -1 --n-max 2".split(),
    "bounds-n-max-below-n-min": "bounds --family linear --n-min 5 --n-max 2".split(),
    # input errors: exit 1 and one error line
    "bounds-negative-degree": (
        "bounds --family dimension --nonterminals 4 --degree -1 --n-min 0 --n-max 1".split()
    ),
    "bounds-negative-constant": "bounds --family linear --constant -2 --n-max 2".split(),
    "selftest-osc-cap-1": "selftest --osc-cap 1".split(),
    "classify-negative-samples": "classify --grammar anbn.cfg --samples -1".split(),
    "classify-empty-partition-level": "classify --grammar anbn.cfg --partition /S".split(),
    # an empty --partition is a partition with one empty level, not none
    "classify-empty-partition": ["classify", "--grammar", "anbn.cfg", "--partition", ""],
    # a seeded run that samples 200 random parse trees
    "classify-dyck2-seeded": "classify --grammar dyck2.cfg --samples 200 --seed 3".split(),
    "cnf-nullable": "cnf --grammar nullable.cfg".split(),
    # the product closure on the 64-node graph (4,224 triples) and its
    # start pairs (2,048)
    "intersect-dyck-perm": "intersect --grammar dyck.cfg --graph perm.graph".split(),
    "reach-dyck-perm": "reach --grammar dyck.cfg --graph perm.graph".split(),
    "reach-unknown-source": "reach --grammar dyck.cfg --graph perm.graph --source nosuch".split(),
    "shortest-dyck-perm-witness": "shortest --grammar dyck.cfg --nfa perm.nfa --witness".split(),
    # dimension and oscillation of a 508-letter harmonic word, (aabb)^75,
    # (ab)^500 (126,250 realized facts) and a^300 b^300
    "tree-metrics-dyck-harmonic": ["tree-metrics", "--grammar", "dyck.cfg", "--word", _harmonic(7)],
    "tree-metrics-dyck-aabb75": ["tree-metrics", "--grammar", "dyck.cfg", "--word", "aabb" * 75],
    "tree-metrics-dyck-ab500": ["tree-metrics", "--grammar", "dyck.cfg", "--word", "ab" * 500],
    "tree-metrics-anbn-300": [
        "tree-metrics", "--grammar", "anbn.cfg", "--word", "a" * 300 + "b" * 300
    ],
    # CYK membership of a 300-letter Dyck word and of one spoilt at its end
    "member-dyck-ab150": ["member", "--grammar", "dyck.cfg", "--word", "ab" * 150],
    "member-dyck-spoilt": ["member", "--grammar", "dyck.cfg", "--word", "ab" * 149 + "ba"],
    # same-generation Datalog on the up/down chain (861 answers)
    "datalog-eval-sg-updown": "datalog-eval --program sg.dl --graph updown.graph".split(),
    "datalog-eval-query-child": "datalog-eval --program label.dl --graph child.graph".split(),
    "datalog-eval-query-Child": "datalog-eval --program wrapper.dl --graph child.graph".split(),
    # transitive closure of the seeded 200-node tree (1,142 ancestor pairs)
    "datalog-eval-desc-tree": "datalog-eval --program desc.dl --graph tree.graph".split(),
    # two-bracket Dyck reachability on the random bracket graph (1,308 pairs)
    "reach-dyck2-brackets": "reach --grammar dyck2.cfg --graph brackets.graph".split(),
    # a^100 b^200 and one b short
    "member-amb2m-100": ["member", "--grammar", "amb2m.cfg", "--word", "a" * 100 + "b" * 200],
    "member-amb2m-short": ["member", "--grammar", "amb2m.cfg", "--word", "a" * 100 + "b" * 199],
    "tree-metrics-amb2m-100": [
        "tree-metrics", "--grammar", "amb2m.cfg", "--word", "a" * 100 + "b" * 200
    ],
    # the grammar analyses on a 305-rule chain: its CNF, the sampler's
    # heights, the superlinear core, and the shortest words
    "cnf-rightchain": "cnf --grammar rightchain.cfg".split(),
    "classify-rightchain": "classify --grammar rightchain.cfg --samples 20 --seed 1".split(),
    "shortest-rightchain-loop": "shortest --grammar rightchain.cfg --nfa loop.nfa".split(),
    "measure-rho-rightchain-random": _measure("rightchain.cfg", "random"),
}


def write_inputs(directory):
    for name, text in INPUTS.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def _stream(name, text):
    if not text:
        return ["%s empty" % name]
    lines = text.splitlines()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    unit = "line" if len(lines) == 1 else "lines"
    header = "%s %d %s sha256:%s" % (name, len(lines), unit, digest)
    if len(lines) > SHOWN_LINES or len(text) > SHOWN_CHARS:
        return [header]
    return [header] + ["| " + line for line in lines]


def render(code, stdout, stderr):
    """The expected-file block of one run: its exit code, then each stream as
    its line count and SHA-256, followed by its lines when it is short."""
    return "\n".join(["exit %d" % code, *_stream("stdout", stdout), *_stream("stderr", stderr)])


def read_expected():
    """The blocks of ``expected.txt`` by entry name, in file order."""
    blocks = {}
    for chunk in ("\n" + EXPECTED.read_text(encoding="utf-8")).split("\n== ")[1:]:
        name, _, block = chunk.partition("\n")
        blocks[name] = block.strip("\n")
    return blocks


def write_expected(blocks):
    text = "\n".join("== %s\n%s\n" % (name, block) for name, block in blocks.items())
    EXPECTED.write_text(text, encoding="utf-8")


def differences(name, expected, actual):
    """The unified diff of one entry's expected and actual blocks."""
    return "".join(
        difflib.unified_diff(
            (expected + "\n").splitlines(keepends=True),
            (actual + "\n").splitlines(keepends=True),
            "expected/%s" % name,
            "actual/%s" % name,
        )
    )


def run_in_process(argv, directory):
    """The block of one run of ``ratindex.cli.main(argv)`` in ``directory``."""
    from ratindex.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse's usage errors
                code = stop.code
    finally:
        os.chdir(cwd)
    return render(code, stdout.getvalue(), stderr.getvalue())


def _console(argv, cwd, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), COLUMNS="80")
    proc = subprocess.run(["ratindex", *argv], cwd=cwd, env=env, capture_output=True)
    return render(proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))


def main():
    expected = read_expected()
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        for seed in 0, 1:
            for name, argv in ENTRIES.items():
                diff = differences(name, expected.get(name, ""), _console(argv, directory, seed))
                if diff:
                    failed += 1
                    print("PYTHONHASHSEED=%d %s" % (seed, diff))
    print("%d of %d runs differ from %s" % (failed, 2 * len(ENTRIES), EXPECTED.name))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
