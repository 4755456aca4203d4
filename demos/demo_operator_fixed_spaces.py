"""The operator-valued averaging equation: fixed points are a commutant.

Conjugating a matrix by the right regular representation and averaging
against a walk law gives a linear map on matrix space.  Its fixed points
are exactly the matrices commuting with every representation matrix of the
generated subgroup; for the regular representation of the full group, that
commutant has dimension equal to the group order (sum of squared irreducible
multiplicities).
"""

import numpy as np

from muharmonic import (
    catalog_entry,
    commutant,
    conjugation_operator,
    generated_subgroup,
    harmonic_space,
    mutual_residual,
    right_regular,
    trivial_solution_space,
)

entry = catalog_entry("S3_transpositions")
g, mu = entry.group, entry.measure

pi_mu = conjugation_operator(g, mu)
print(f"conjugation operator on vec'd 6x6 matrices: {len(pi_mu)} x {len(pi_mu)}")

fixed = harmonic_space(pi_mu)
h = generated_subgroup(g, mu.support())
comm = trivial_solution_space(g, h, rep="operators")
print(f"fixed space rank: {fixed.rank}")
print(f"commutant of the generated subgroup (order {h.order}): rank {comm.rank}")
print(f"mutual containment residual: {mutual_residual(fixed, comm):.2e}")
print("for S3 the commutant of the full regular representation has dimension")
print("1^2 + 1^2 + 2^2 = 6, matching the ranks above")

# sanity: the averaged conjugation really fixes a commutant element
rho = right_regular(g)
x = sum(rho[k] for k in range(6))  # the all-group sum commutes with everything
out = (pi_mu @ x.reshape(-1)).reshape(6, 6)
print(f"\naveraging fixes the group-algebra sum: residual {np.abs(out - x).max():.2e}")

# a smaller law generates a proper subgroup and a bigger commutant
z6 = catalog_entry("Z6_delta2")
fixed6 = harmonic_space(conjugation_operator(z6.group, z6.measure))
h6 = generated_subgroup(z6.group, z6.measure.support())
print(f"\nZ/6 with the two-step law: generated subgroup order {h6.order}, "
      f"operator fixed space rank {fixed6.rank}")
print("(abelian group, subgroup of order 3: matrices commuting with the order-3")
print(" shift form a 12-dimensional space inside the 36-dimensional matrix space)")
