"""
The six-node path, end to end
=============================

Build P6, look at every statistic the library computes for it, and
watch the neighbour average beat the plain average for each measure.
"""

import numpy as np

from paradoxlab import (build_undirected, compute, CentralityParams,
                        eigenvector_centrality, exact_degree_stats,
                        paradox_report, symmetrization_identity,
                        harmonic_mean_check, eaves_check)

# P6: nodes 0..5 in a line.
p6 = build_undirected(6, [(i, i + 1) for i in range(5)])
print("degrees:", p6.degree_seq.tolist())

# Degree statistics admit exact rational arithmetic.
mu, mu_bar, mu_tilde = exact_degree_stats(p6)
print(f"exact degree means: mu = {mu}, mu_bar = {mu_bar}, "
      f"mu_tilde = {mu_tilde}")

report = paradox_report(p6, p6.degree_seq.astype(float))
print("float slack mu_bar - mu =", report.slack)
print("per-node bias delta:", report.delta.tolist())

# The dominant eigenvalue of a path has a closed form: 2 cos(pi/7).
spectral, vector = eigenvector_centrality(p6)
print("lambda1 =", spectral.lambda1, "vs", 2 * np.cos(np.pi / 7))
print("eigenvector:", np.round(vector.values, 4).tolist())

# P1000 is long enough for a start solver.  Its spectral gap is 2.95e-5,
# and its band is one wide: shift-invert iteration factors sigma I - A
# again as each iterate's Collatz–Wielandt bound lowers sigma towards
# lambda1, and needs 4 solves, where Lanczos took 1,661 matvecs.
p1000 = build_undirected(1000, [(i, i + 1) for i in range(999)])
long_spectral, _ = eigenvector_centrality(p1000)
print(f"P1000 eigenvector: method {long_spectral.method}, "
      f"{long_spectral.iterations} iterations, "
      f"residual {long_spectral.residual:.2e}, lambda1 - 2 cos(pi/1001) = "
      f"{long_spectral.lambda1 - 2 * np.cos(np.pi / 1001):.1e}")

# For the eigenvector the edge-sampled mean flips above the neighbour
# average -- the paradox against mu still holds.
eig_report = paradox_report(p6, vector)
print("eigenvector means:", eig_report.mu, eig_report.mu_bar,
      eig_report.mu_tilde)
print("paradox holds:", eig_report.paradox_holds,
      "| neighbour avg below edge-sampled:",
      eig_report.mu_bar < eig_report.mu_tilde)

# Identities that prove the degree paradox, evaluated numerically.
print("symmetrisation lhs, rhs:", symmetrization_identity(p6))
print("harmonic-mean lhs >= rhs:", harmonic_mean_check(p6, spectral))
print("eaves ell=1 lhs >= rhs:", eaves_check(p6, 1))
print("eaves ell=2 lhs >= rhs:", eaves_check(p6, 2))

# Walk counts interpolate between degree (ell=1) and eigenvector
# (ell -> infinity) behaviour.
for ell in (1, 2, 3):
    walks = compute(p6, CentralityParams(kind="walk_count", ell=ell))
    rep = paradox_report(p6, walks)
    print(f"walk_count({ell}): mu_bar - mu = {rep.slack:.6f}")

# Katz near the spectral radius: Jacobi from the all-ones vector takes
# 27,710 steps at 0.999 / lambda1; conjugate gradients and a
# certifying Jacobi tail need a handful.
alpha = 0.999 / spectral.lambda1
katz = compute(p6, CentralityParams(kind="katz", alpha=alpha))
print(f"katz at 0.999/lambda1: {katz.iterations} iterations, "
      f"residual {katz.residual:.2e}, "
      f"mu_bar - mu = {paradox_report(p6, katz).slack:.6f}")
