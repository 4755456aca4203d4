"""Averaged predual norms converge to a quotient norm, in closed form and by LP.

For an l^1 vector x, the norms a_n = ||(1/n) sum_{i<=n} x * mu^i||_1
decrease (n a_n is subadditive) to the distance from x to the displacement
ideal {y - y * mu}.  That distance is ||x * omega_H||_1, the sum over the
left cosets of the generated subgroup H of |sum_coset x| (quotient_norm),
and it has an independent computation: an exact linear program (minimize
||x - B t||_1 over the ideal's basis B).  The routes are compared on a hand
case and on a random vector.
"""

import numpy as np

from muharmonic import (
    catalog_entry,
    coboundary_ideal,
    l1_distance,
    quotient_norm,
    quotient_norm_trace,
)

z2 = catalog_entry("Z2_delta1")
ideal2 = coboundary_ideal(z2.group, z2.measure)
print("Z/2 with the swap law; ideal = span{(1,-1)}")
for x in (np.array([1.0, 0.0]), np.array([1.0, -1.0])):
    trace = quotient_norm_trace(x, ideal2.predual_op, 16, ideal=ideal2)
    print(f"  x = {x.tolist()}: a_1..a_4 = {[round(a, 12) for a in trace.norms[:4]]}, "
          f"quotient norm = {trace.distance:g}")

entry = catalog_entry("S4_two_gens")
ideal = coboundary_ideal(entry.group, entry.measure)
rng = np.random.default_rng(11)
x = rng.standard_normal(24)
x /= np.abs(x).sum()

trace = quotient_norm_trace(x, ideal.predual_op, 4096, ideal=ideal)
print(f"\nS4 with two generators, a random signed unit-l1 vector:")
for n in (1, 2, 8, 64, 512, 4096):
    print(f"   a_{n:<5d} = {trace.norms[n-1]:.10f}")
print(f"   quotient norm = {trace.distance:.10f}")
print(f"   |a_4096 - quotient norm| = {abs(trace.limit_estimate - trace.distance):.2e}")

lp = l1_distance(x, ideal)
print(f"   simplex LP agrees with the closed form: {abs(lp - quotient_norm(x, ideal)):.2e}")
print("\nThe averaged norms sit above the quotient norm for every n and meet it")
print("in the limit; the in-package simplex provides the independent value.")
