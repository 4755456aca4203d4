"""Stationary measures of group-induced chains, found two ways.

A group acting on a finite point set turns a walk law into a Markov chain
on the points.  A stationary probability is a fixed vector of the transpose
transition matrix; it can also be reached by pushing the uniform start
forward.  Both routes run here on the natural S3 action and on coset
actions, and they agree whenever the fixed space is one-dimensional.
"""

import itertools

import numpy as np

from muharmonic import (
    GSpaceAction,
    catalog_entry,
    coset_action,
    generated_subgroup,
    gspace_markov_matrix,
    stationary_measure,
    symmetric_group,
    trivial_action,
    uniform_on,
)

s3 = symmetric_group(3)
perms = list(itertools.permutations(range(3)))
action = GSpaceAction(s3, 3, np.array([list(p) for p in perms]))
mu = uniform_on(s3, [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")])

p = gspace_markov_matrix(action, mu)
print("S3 acting on three points, law uniform on (1 2) and (1 3):")
print("transition matrix:")
print(p.real)

report = stationary_measure(action, mu)
print(f"power-iteration limit: {report.measure.weights.real.round(12).tolist()}")
print(f"eigen-solve result:    {report.eigen_measure.weights.real.round(12).tolist()}")
print(f"routes agree to {report.agreement:.2e}; fixed space dim {report.fixed_dim}")

print("\ncoset action of S4 on the cosets of a point stabilizer:")
s4 = catalog_entry("S4_two_gens").group
h = generated_subgroup(s4, [s4.labels.index("(1 2)"), s4.labels.index("(1 2 3)")])
act = coset_action(s4, h)
rng = np.random.default_rng(3)
weights = rng.random(24) + 0.05
from muharmonic import FiniteMeasure

law = FiniteMeasure(s4, (weights / weights.sum()).astype(complex))
rep = stationary_measure(act, law)
print(f"points: {act.points}, stationary: {rep.measure.weights.real.round(6).tolist()}")
print("(group actions give doubly stochastic chains, so uniform is always stationary)")

triv = stationary_measure(trivial_action(s3, 5), mu)
print(f"\ntrivial action on 5 points: every measure is stationary, "
      f"fixed space dim = {triv.fixed_dim}")
