#!/usr/bin/env python3
"""Simulating rounds and reconstructing the relation from what was seen.

The observer's estimate is just the support of the observed tuples; success
means seeing every admissible tuple (and every input at least once).  The
exact success probability after k rounds is a coupon-collector probability
with unequal coupons, read off its Poissonized generating function and
checked here against Monte Carlo.
A table with exact zeros outside the relation also doubles as a dimension
witness for the message system.
"""

from cliquecomm import (
    build_relation,
    ccr_protocol,
    dimension_witness,
    enumerate_maximum_cliques,
    gen_nncc,
    mc_success_rate,
    mixture_for_optimality,
    reconstruct,
    simulate_rounds,
    success_prob_exact,
)
from cliquecomm.simulate import success_curve_csv

g = gen_nncc(2, 3, 1)
cliques = enumerate_maximum_cliques(g)
rel = build_relation(g, cliques)
table = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)

print("=== a few simulated rounds ===")
log = simulate_rounds(table, 8, seed=5)
print(log.to_csv())

print("=== success probability: exact vs Monte Carlo ===")
grid = [25, 50, 100, 200, 400]
rows = [(k, success_prob_exact(table, rel, k)) for k in grid]
mc = [mc_success_rate(table, rel, k, trials=4000, seed=5) for k in grid]
print(success_curve_csv(rows, mc))

print("=== a deterministic strategy never reconstructs ===")
det = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
print("exact success at any k:",
      [success_prob_exact(det, rel, k) for k in (10, 100, 10_000)])
log = simulate_rounds(det, 5000, seed=5)
res = reconstruct(log, rel.n, rel.omega, truth=rel)
print("observed", len(res.observed), "of", rel.size, "tuples -> success:", res.success)

print("\n=== reconstruction recovers the graph itself ===")
log = simulate_rounds(table, 3000, seed=5)
res = reconstruct(log, rel.n, rel.omega, truth=rel)
print("success:", res.success, " recovered graph:", res.inferred_graph,
      " matches original:", res.inferred_graph == g)

print("\n=== dimension witness from the observed table ===")
print("intact table: ", dimension_witness(table, rel, cliques.omega).message)
