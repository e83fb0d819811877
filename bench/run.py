"""Seeded benchmark of ratindex.

    python3 bench/run.py --workload dense-graph --seed 1 --seconds 30 --trace 0

Builds the workload's text inputs from the seed, parses them with ratindex
(set-up), then runs whole rounds of the four passes (reach, shortest,
parse, sweep) as a closed loop until ``--seconds`` have passed.  Outputs of
the first round are checked after the timed rounds.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_ROUNDS = 5
PROBE_REPEATS = 3


def import_ratindex():
    """Import ratindex from this checkout's src/, never from elsewhere."""
    package = SRC / "ratindex"
    if not (package / "__init__.py").is_file():
        sys.exit("bench: no ratindex package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ratindex

    if Path(ratindex.__file__).resolve().parent != package.resolve():
        sys.exit("bench: ratindex was imported from %s" % ratindex.__file__)
    return ratindex


def probe_setup(texts) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC)],
        input=json.dumps(texts), capture_output=True, text=True, cwd=ROOT,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_rounds(ri, workloads, inp, plan, call, tracer, seconds, trace, between):
    """Whole rounds until `seconds` have passed, calling `between()` after
    each.  Round 0 warms caches and keeps its outputs for the checks; its
    times are not reported.  With tracing, odd rounds are traced and the
    others are not, to measure the tracing overhead.

    Every round makes the same calls in the same order.  A pass's time is
    the sum over its calls of each call's median over the rounds, in
    reference seconds (see spans.PassClock): a burst of host load slows
    the calls that run during it in one round, and the medians drop it.
    Returns the pass times of untraced and of traced rounds (None without
    tracing), keyed by metric."""
    timed: dict[bool, list[dict[str, list[float]]]] = {False: [], True: []}
    kept, first_digest, problems = None, None, []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        tracer.enabled, tracer.group = traced, "round%d" % rounds
        records, calls = [], {}
        with tracer.span("bench.round"):
            for metric, run_pass in workloads.PASSES:
                with tracer.span("pass." + metric[:-2]):
                    call.durations = []
                    call.clock.start()
                    run_pass(ri, inp, plan, call, tracer, records)
                    speed = call.clock.stop()
                calls[metric] = [d * speed for d in call.durations]
                call.durations = None
        if rounds:
            timed[traced].append(calls)
        digest = workloads.summary(records)
        if rounds == 0:
            kept, first_digest = records, digest
            # Keep the checked outputs out of later garbage collections.
            gc.freeze()
        elif digest != first_digest:
            problems.append("round %d outputs differ from round 0" % rounds)
        records = None
        rounds += 1
        between()
    tracer.enabled = False

    def pass_times(rows):
        return {metric: sum(statistics.median(c) for c in zip(*(r[metric] for r in rows)))
                for metric in rows[0]} if rows else None

    return rounds, pass_times(timed[False]), pass_times(timed[True]), kept, problems


def replay_sweeps(ri, inp, plan):
    """Evaluate again every automaton the plan's sweeps test, to count the
    nonempty intersections (measure_rho reports only the maximum)."""
    from ratindex.measure import enumerate_nfas
    from ratindex.sampling import random_nfa

    tested = nonempty = 0
    for item in plan["sweep"]:
        g, n, spec = inp.cnf[item["grammar"]], item["n"], item["strategy"]
        alphabet = tuple(sorted(g.terminals))
        if spec[0] == "random":
            rng = random.Random(spec[2])
            automata = (random_nfa(rng, rng.randint(1, n), alphabet, spec[3])
                        for _ in range(spec[1]))
        elif spec[0] == "exhaustive":
            automata = (nfa for _, nfa in enumerate_nfas(n, alphabet, spec[1]))
        else:
            automata = [ri.two_cycle_family(spec[1], spec[2])]
        for nfa in automata:
            product = ri.bar_hillel(g, nfa)
            tested += 1
            nonempty += ri.shortest_start(product, ri.shortest_words(product)) is not None
    return tested, nonempty


def probes(ri, inp, plan, seed):
    """Per-layer figures that need calls of their own: enumeration speed
    and canonical share, the process-pool speed-up, nonempty share."""
    from ratindex.measure import enumerate_nfas

    enum_times, classes = [], 0
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        classes = sum(1 for _ in enumerate_nfas(2, ("a", "b")))
        enum_times.append(time.perf_counter() - t0)
    # Candidates per size m over two letters: 2^(2 m^2) transition sets
    # times (2^m - 1)^2 nonempty initial and accepting sets.
    candidates = sum(2 ** (2 * m * m) * (2 ** m - 1) ** 2 for m in (1, 2))
    sample = ri.RandomSample(count=300, seed=seed)
    pool_times = {1: [], 2: []}
    for _ in range(PROBE_REPEATS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            ri.measure_rho(inp.cnf["dyck1"], 5, sample, workers=workers)
            pool_times[workers].append(time.perf_counter() - t0)
    tested, nonempty = replay_sweeps(ri, inp, plan)
    return {
        "measure.enumerate_nfas_s": (statistics.median(enum_times), "s"),
        "measure.canonical_ratio": (classes / candidates, "ratio"),
        "measure.pool_speedup": (
            statistics.median(pool_times[1]) / statistics.median(pool_times[2]), "ratio"),
        "measure.automata_nonempty": (nonempty, "count"),
        "measure.nonempty_ratio": (nonempty / tested, "ratio"),
    }


SETUP_LAYERS = ("grammar.parse", "grammar.to_cnf", "graphs.parse", "datalog.parse")
ROUND_LAYERS = (
    "grammar.cyk_membership", "grammar.cyk_parse", "trees.dimension",
    "wellnested.alpha_of_tree", "wellnested.oscillation",
    "reachability.all_pairs_reach", "reachability.witness", "datalog.evaluate",
    "intersection.bar_hillel", "intersection.shortest_words",
    "intersection.shortest_start", "intersection.extract_witness", "measure.measure_rho",
)
ROUND_COUNTS = (
    "reachability.facts", "datalog.answers", "intersection.triples",
    "intersection.witness_symbols", "measure.automata_tested",
)


def layer_metrics(tracer, setup_groups, round_groups, overhead, probe_metrics):
    self_times = tracer.self_times()

    def median_self(groups, name):
        return statistics.median(self_times[g].get(name, 0.0) for g in groups)

    def median_count(name):
        return statistics.median(tracer.counts[g].get(name, 0) for g in round_groups)

    def median_rate(count, name):
        return statistics.median(
            tracer.counts[g].get(count, 0) / self_times[g][name] for g in round_groups)

    metrics = {}
    for name in SETUP_LAYERS:
        metrics[name + "_s"] = (median_self(setup_groups, name), "s")
    for name in ROUND_LAYERS:
        metrics[name + "_s"] = (median_self(round_groups, name), "s")
    for name in ROUND_COUNTS:
        metrics[name] = (median_count(name), "count")
    metrics["reachability.facts_per_s"] = (
        median_rate("reachability.facts", "reachability.all_pairs_reach"), "1/s")
    metrics["intersection.triples_per_s"] = (
        median_rate("intersection.triples", "intersection.shortest_words"), "1/s")
    metrics.update(probe_metrics)
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ri = import_ratindex()
    import checks
    import workloads
    from spans import Calls, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    texts, plan = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    call = Calls(tracer)
    phases = [("start", time.perf_counter())]

    # Untraced runs time fresh-interpreter set-ups, one before the rounds
    # and one after each, so that they meet the host in more than one state.
    setup_times: list[float] = []

    def probe() -> None:
        if not args.trace:
            setup_times.append(probe_setup(texts))

    setup_groups = []
    if args.trace:
        tracer.enabled = True
        for rep in range(SETUP_REPEATS):
            tracer.group = "setup%d" % rep
            setup_groups.append(tracer.group)
            inp = workloads.parse_texts(texts, tracer)
        tracer.enabled = False
    else:
        inp = workloads.parse_texts(texts, tracer)
    probe()
    phases.append(("set-up", time.perf_counter()))

    rounds, pass_times, traced_times, kept, problems = run_rounds(
        ri, workloads, inp, plan, call, tracer, args.seconds, args.trace, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases.append(("rounds", time.perf_counter()))

    problems += checks.check_round(inp, kept)
    kept = None
    phases.append(("checks", time.perf_counter()))
    outcomes = None
    for _ in range(rounds):
        results = workloads.run_failing(ri, inp, plan, call)
        pattern = [result is None for _, result in results]
        if outcomes is None:
            outcomes = pattern
            problems += checks.check_failing(inp, results)
        elif pattern != outcomes:
            problems.append("known-failing operations changed outcome between rounds")
    phases.append(("known failures", time.perf_counter()))

    if args.trace:
        round_groups = ["round%d" % r for r in range(1, rounds, 2)]
        overhead = sum(traced_times.values()) - sum(pass_times.values())
        metrics = layer_metrics(tracer, setup_groups, round_groups, overhead,
                                probes(ri, inp, plan, args.seed))
        tracer.dump(HERE / "out" / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
        phases.append(("probes", time.perf_counter()))
    else:
        metrics = {metric: (seconds, "s") for metric, seconds in pass_times.items()}
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    for problem in problems:
        print("bench: check failed: %s" % problem, file=sys.stderr)
    print("bench: %s seed %d: %d rounds, %d calls, %d failed; %s"
          % (args.workload, args.seed, rounds, call.attempted, call.failed,
             ", ".join("%s %.1f s" % (name, end - begin)
                       for (_, begin), (name, end) in zip(phases, phases[1:]))),
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": call.attempted,
        "failed": call.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
