"""
Sampling the bias distribution on random graphs
===============================================

Pool the per-node bias delta_i = (neighbour average) - r_i over a
seeded Erdos-Renyi ensemble and summarise the empirical distribution.
Everything below is reproducible: same seed, same numbers.
"""

from paradoxlab import (RandomGraphSpec, CentralityParams,
                        bias_distribution, compute, generate,
                        pagerank_centrality, pagerank_paradox_check,
                        paradox_report)

spec = RandomGraphSpec(model="erdos_renyi", n=50, p=0.1, seed=0)
dist = bias_distribution(spec, CentralityParams(kind="degree"),
                         n_graphs=100, seed=7)

print(f"{len(dist.samples)} pooled samples from 100 graphs")
print(f"mean {dist.mean:.4f}  stddev {dist.stddev:.4f}")
print(f"min {dist.min:.3f}  max {dist.max:.3f}")
print("quantiles:")
for level, value in dist.quantiles.items():
    print(f"  {level:4.2f}: {value: .4f}")
# A positive mean is the paradox; individual nodes can still sit on
# the lucky side of it.
print(f"fraction with negative bias: {dist.fraction_negative:.3f}")

print("\nhistogram")
peak = max(count for _, _, count in dist.histogram)
for lo, hi, count in dist.histogram:
    bar = "#" * max(1, round(40 * count / peak)) if count else ""
    print(f"[{lo: 7.3f}, {hi: 7.3f})  {count:5d}  {bar}")

# Same machinery, eigenvector measure.
eig = bias_distribution(spec, CentralityParams(kind="eigenvector"),
                        n_graphs=25, seed=7)
print(f"\neigenvector bias: mean {eig.mean:.6f}, "
      f"negative fraction {eig.fraction_negative:.3f}")

# Random 3-regular graphs sit at the equality case: every neighbour
# average equals the node's own value, up to rounding.
regular = bias_distribution(RandomGraphSpec(model="k_regular", n=40, k=3),
                            CentralityParams(kind="eigenvector"),
                            n_graphs=25, seed=7)
print(f"3-regular eigenvector bias: largest |delta| "
      f"{max(-regular.min, regular.max):.1e}")

# Random 2-regular graphs are unions of cycles; members are resampled in
# rounds until they form one ring, then PageRank is solved once over the
# window's union.
rings = bias_distribution(RandomGraphSpec(model="k_regular", n=40, k=2),
                          CentralityParams(kind="pagerank", beta=0.15),
                          n_graphs=25, seed=7)
print(f"2-regular ring pagerank bias: largest |delta| "
      f"{max(abs(rings.min), abs(rings.max)):.1e}")

# The erased configuration model drops each pairing's loops and parallel
# edges, so realised degrees can fall below their targets; a round pairs
# the stubs of all its pending members at once.
targets = (6, 5, 5, 4, 4, 4) + (3,) * 12 + (2,) * 12
erased = bias_distribution(
    RandomGraphSpec(model="configuration", n=30, degree_sequence=targets),
    CentralityParams(kind="degree"), n_graphs=25, seed=7)
print(f"erased configuration degree bias: mean {erased.mean:.4f}, "
      f"negative fraction {erased.fraction_negative:.3f}")

# Directed PageRank: <1, C r> >= 1 on any strongly connected graph.
ring = generate(RandomGraphSpec(model="cycle", n=40, seed=3))
vector = pagerank_centrality(ring, 0.85)
lhs, rhs = pagerank_paradox_check(ring, vector)
print(f"\npagerank check on C40 (bidirected): lhs = {lhs:.12f} >= {rhs}")

# Closeness and harmonic on a small-world graph: preferential attachment
# keeps every search short, so 64 sources share each machine word of a
# bottom-up breadth-first search.
hubs = generate(RandomGraphSpec(model="preferential_attachment", n=300,
                                m_attach=2, seed=1))
for kind in ("closeness", "harmonic"):
    report = paradox_report(hubs, compute(hubs, CentralityParams(kind=kind)))
    print(f"preferential attachment {kind}: mu_bar - mu = "
          f"{report.slack:.6f}")
