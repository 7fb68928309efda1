#!/usr/bin/env python3
"""Public coins: mixing deterministic strategies, and what a shared e-bit buys.

A shared coin lets Alice and Bob switch between deterministic minimum-message
strategies.  Mixing n of them already covers the whole relation with payoff
1/n; reaching the optimal payoff exactly needs balanced mixtures, which for
two-vertex cliques is precisely a binary orthogonal array of strength two.
A single shared entangled pair replaces all of that: remote state
preparation ships one of n equatorial qubit bases with one classical bit.
"""

import math

from cliquecomm import (
    build_relation,
    enumerate_maximum_cliques,
    gen_disconnected,
    is_orthogonal_array,
    min_oa_rows,
    mixture_for_coverage,
    mixture_for_optimality,
    payoff,
    rsp_payoff,
    symmetric_equatorial_angles,
)

print("=== coverage with n strategies, optimality with an orthogonal array ===")
for n in (2, 3, 4, 5):
    g = gen_disconnected(n, 2)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    cov = mixture_for_coverage(g, cliques, rel)
    opt = mixture_for_optimality(g, cliques, rel)
    print(f" n={n}: coverage mixture {cov.coin_inputs} strategies"
          f" -> payoff {payoff(cov.table(n, 2), rel).value},"
          f"  optimal mixture {opt.coin_inputs} strategies"
          f" -> payoff {payoff(opt.table(n, 2), rel).value}")

print("\nthe optimal 4-clique mixture, read as binary rows (swap=1):")
g = gen_disconnected(4, 2)
cliques = enumerate_maximum_cliques(g)
rel = build_relation(g, cliques)
rows = []
for s in mixture_for_optimality(g, cliques, rel).strategies:
    rows.append(tuple(s.decoder[(0, y)][0][0] for y in range(2, 5)))
for r in rows:
    print("  ", r)
print("strength-2 orthogonal array:", is_orthogonal_array(rows))

print("\nminimum rows of a strength-2 binary array, by column count:")
for k in (1, 2, 3, 4, 5, 8, 11, 12, 47):
    print(f"  k={k}: {min_oa_rows(k)} rows")

print("\n=== one e-bit instead of a growing coin ===")
for n in (2, 3, 4, 6):
    angles = symmetric_equatorial_angles(n)
    print(f" n={n} symmetric equatorial bases -> payoff"
          f" {rsp_payoff(angles).payoff:.9f}")
print("n=4 gives sin^2(pi/8) =", f"{math.sin(math.pi / 8) ** 2:.9f}")
