#!/usr/bin/env python3
"""Classical one-way protocols: computing a valid answer vs covering them all.

Computing any valid answer needs only one message per label class, so
log2(omega) bits suffice.  Covering every valid answer over many rounds
(so an outside observer can reconstruct the relation) is harder: with a
deterministic encoder the message count must reach the graph order, and
counting the distinct admissible-output rows below certifies that one
fewer message is never enough.
"""

from cliquecomm import (
    build_relation,
    ccr_protocol,
    check_consistency,
    check_coverage,
    compress_rows,
    enumerate_consistent_strategies,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    payoff,
    randomized_encoding_feasible,
    sccr_protocol,
    strategy_partition,
    verify_classical_lower_bound,
)

g = gen_nncc(2, 3, 1)
cliques = enumerate_maximum_cliques(g)
rel = build_relation(g, cliques)

print("=== distributed computation: 3 messages ===")
s = ccr_protocol(g, cliques, rel)
print("messages:", s.m)
for i, cls in enumerate(strategy_partition(s)):
    print(f"  message {i} carries inputs {cls}")
table = s.table(rel.n, rel.omega)
print("stays on the relation:", check_consistency(table, rel)[0])
print("covers every valid answer:", check_coverage(table, rel)[0], "(it cannot)")

print("\nall minimum-message strategies:")
for st in enumerate_consistent_strategies(g, cliques, rel):
    print("  ", strategy_partition(st))

print("\n=== reconstruction: one message per vertex ===")
s = sccr_protocol(g, cliques, rel)
t = s.table(rel.n, rel.omega)
report = payoff(t, rel)
print("messages:", s.m, " payoff:", report.value, " bound:", report.upper_bound)
compressed = compress_rows(t, g, cliques)
print("rows compress onto vertices:", compressed.vertices)
print("rows (C1,2) and (C2,0) share message", compressed.row_to_message[(1, 2)])

print("\n=== the lower bound, certified exhaustively ===")
for m in (3, 4, 5):
    blocked = verify_classical_lower_bound(g, cliques, rel, m)
    print(f"  m={m}: {'no protocol exists' if blocked else 'a protocol exists'}")

print("\n=== a twist: randomizing the encoder too ===")
g3 = gen_disconnected(3, 2)
cliques3 = enumerate_maximum_cliques(g3)
rel3 = build_relation(g3, cliques3)
witness = randomized_encoding_feasible(g3, cliques3, rel3, 5)
print("three disjoint edges have six vertices, yet five messages suffice")
print("once Alice may also randomize which message she sends:")
for msg in witness:
    print("   message usable by vertices", sorted(msg))
print("(each message's output set is the intersection of its members'")
print(" admissible answers; the union over a vertex's messages covers it)")
