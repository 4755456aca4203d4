"""The norm-1 projection onto the fixed space, and where it comes from.

Averaging the powers of the Markov matrix, (1/n) sum_{i<=n} M^i, converges
to a projection K onto the fixed vectors.  On a finite group that limit has
a second description: it is the averaging matrix of the uniform (Haar)
probability on the subgroup generated by the walk's support.  The script
shows the sequence converging at O(1/n), the exact limit, and the
projection's contract: K^2 = K, norm one, commutes with every left
translation, entrywise nonnegative.
"""

import numpy as np

from muharmonic import (
    catalog_entry,
    cesaro_average,
    cesaro_projection,
    generated_subgroup,
    haar_on_subgroup,
    left_regular,
    right_markov_matrix,
    tv_distance,
)

entry = catalog_entry("S3_transpositions")
g, mu = entry.group, entry.measure

print("measure: uniform on two transpositions of S3; its support generates all of S3")
omega = haar_on_subgroup(g, generated_subgroup(g, mu.support()))

print("\n tv distance of the running average A_n from the Haar limit:")
for n in (1, 4, 16, 64, 256, 1024):
    print(f"   n = {n:5d}: {tv_distance(cesaro_average(mu, n), omega):.3e}")
print(" (the walk alternates parity, so the averages oscillate and close at O(1/n))")

report = cesaro_projection(right_markov_matrix(g, mu), n_max=2000)
k = report.K
worst_commutator = max(float(np.linalg.norm(k @ t - t @ k)) for t in left_regular(g))

print("\n exact projection K (spectral splitting of the averaged sequence):")
print(f"   ||K^2 - K||_F            = {report.idempotency_residual:.2e}")
print(f"   max |row sum|            = {report.norm_inf:.15f}")
print(f"   worst commutator with L  = {worst_commutator:.2e}")
print(f"   min entry                = {k.real.min():.2e}")
print(f"   rank                     = {report.range_rank}")
print(f"   iterative gap at n={report.n_iterations}: {report.iterative_gap:.2e} "
      f"(converged iteratively: {report.converged_iteratively})")

target = right_markov_matrix(g, omega)
print(f"   ||K - averaging_by_haar||_F = {np.linalg.norm(k - target):.2e}")
print("\n K is literally 'average over the generated subgroup': the Cesaro limit")
print(" of the walk and the Haar average are the same matrix.")
