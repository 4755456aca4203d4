"""Stationary measures of group-induced chains, in closed form.

A group acting on a finite point set turns a walk law mu into a Markov
chain on the points.  Each group element permutes the points, so the
transition matrix P is doubly stochastic and the chain's classes are the
orbits of H = <supp mu>: the stationary probabilities are the mixtures of
the uniform measures on the H-orbits.  Here that closed form is set
against the generic kernel of P^T - I, on the natural S3 action and on
coset actions of S4.
"""

import itertools

import numpy as np

from muharmonic import (
    GSpaceAction,
    column_space,
    coset_action,
    generated_subgroup,
    gspace_markov_matrix,
    kernel,
    mutual_residual,
    point_mass,
    stationary_measure,
    symmetric_group,
    trivial_action,
    uniform_on,
)


def show(title, action, mu):
    report = stationary_measure(action, mu)
    p = gspace_markov_matrix(action, mu).real
    oracle = kernel(p.T - np.eye(action.points))
    gap = mutual_residual(oracle, column_space(np.array([m.weights for m in report.measures]).T))
    print(f"{title}: {action.points} points")
    print(f"  H-orbit of each point: {report.labels.tolist()}")
    print(f"  extreme stationary probabilities: {report.fixed_dim}; rank ker(P^T - I) = "
          f"{oracle.rank}, residual to their span {gap:.1e}")
    return report


s3 = symmetric_group(3)
action = GSpaceAction(s3, 3, np.array(list(itertools.permutations(range(3)))))
mu = uniform_on(s3, [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")])
print("transition matrix of S3 on three points, law uniform on (1 2) and (1 3):")
print(gspace_markov_matrix(action, mu).real)
report = show("S3 on its points", action, mu)
print(f"  the one stationary probability: {report.measures[0].weights.real.round(12).tolist()}")

s4 = symmetric_group(4)
k = generated_subgroup(s4, [s4.labels.index("(1 2)")])
cosets = coset_action(s4, k)
print("\nS4 on the 12 cosets of <(1 2)>:")
for label in ("(1 2 3)", "(3 4)", "(1 2 3 4)"):
    show(f"law the point mass at {label}", cosets, point_mass(s4, s4.labels.index(label)))

show("\ntrivial action on 5 points (every measure is stationary)", trivial_action(s3, 5), mu)
