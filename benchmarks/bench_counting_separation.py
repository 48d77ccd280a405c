"""E8 — the counting analogue (Theorem 4.16 shape).

For full CQs of bounded ghw, #CQ is polynomial via the join-tree dynamic
program; the benchmark compares it with brute-force counting on proper-
colouring instances (where the exact counts are known analytically for
cycles) and checks parsimony of the counting reduction (Theorem 4.15).
"""

import time

from repro.cq import generators as cqgen
from repro.cq.decomposition_eval import decomposition_count_answers
from repro.cq.homomorphism import count_answers
from repro.dilutions import DilutionSequence, MergeOnVertex
from repro.hypergraphs import Hypergraph
from repro.reductions import counting_reduction
from repro.reductions.parsimonious import verify_parsimony

CYCLE_LENGTHS = [4, 5, 6]
COLOURS = 3


def expected_colourings(length: int, colours: int) -> int:
    return (colours - 1) ** length + (-1) ** length * (colours - 1)


def run_counting():
    rows = []
    for length in CYCLE_LENGTHS:
        query = cqgen.cycle_query(length)
        database = cqgen.grid_constraint_database(query, colours=COLOURS)
        start = time.perf_counter()
        via_dp = decomposition_count_answers(query, database)
        dp_time = time.perf_counter() - start
        start = time.perf_counter()
        via_bruteforce = count_answers(query, database)
        brute_time = time.perf_counter() - start
        rows.append((length, expected_colourings(length, COLOURS), via_dp, via_bruteforce, dp_time, brute_time))

    # Parsimonious counting reduction on a merged-cycle source.
    source = Hypergraph(edges=[{"x0", "v"}, {"v", "x1"}, {"x1", "x2"}, {"x2", "x3"}, {"x3", "x0"}])
    sequence = DilutionSequence([MergeOnVertex("v")])
    diluted = sequence.apply(source)
    query = cqgen.query_from_hypergraph(diluted)
    database = cqgen.grid_constraint_database(query, colours=COLOURS)
    reduction = counting_reduction(query, database, source, sequence)
    parsimony = verify_parsimony(reduction)
    return rows, parsimony


def test_counting_separation(benchmark, record_result):
    rows, parsimony = benchmark.pedantic(run_counting, rounds=1, iterations=1)
    lines = [
        f"#CQ on proper {COLOURS}-colouring instances (cycle queries):",
        "  n   expected  join-tree-DP  brute-force  dp_seconds  brute_seconds",
    ]
    for length, expected, dp, brute, dp_time, brute_time in rows:
        lines.append(
            f"  {length:<3} {expected:<9} {dp:<13} {brute:<12} {dp_time:<11.4f} {brute_time:.4f}"
        )
    lines.append(f"counting reduction parsimonious: {parsimony}")
    record_result("E8_counting", "\n".join(lines))

    for length, expected, dp, brute, _, _ in rows:
        assert dp == expected == brute
    assert parsimony
