"""The free group: bounded harmonic functions beyond the obvious ones.

On a finite group the averaging equation forces coset-periodicity.  On the
free group F_2 the simple random walk escapes to the boundary of the tree,
and every boundary cylinder produces a genuinely nonconstant bounded
harmonic function: the probability, seen from g, of escaping through that
cylinder.  This script samples walks once, reads off the escape frequency,
checks the martingale picture on the same paths, and exhibits the failure
of the pointwise-product identity that held in the finite world.
"""

from muharmonic import (
    boundary_reports,
    free_ball,
    harmonic_measure_cylinder,
    neighbors,
    poisson_extension,
    word,
)

K = 2
W = word(K, (1,))  # the cylinder of boundary points starting with 'a'
SEED = 2024

# one pass of 100,000 walks of 100 steps, with h(X_60) read on the way
(est, mart, dia), = boundary_reports(K, (W,), n_steps=100, n_paths=100_000, seed=SEED,
                                     snapshot=60)
print(f"cylinder [{W}]: exact escape probability = {harmonic_measure_cylinder(K, W)}")
print(f"Monte Carlo over {est.n_paths} paths: {est.estimate:.4f} "
      f"(stderr {est.stderr:.4f}, {est.inconclusive_count} inconclusive)")

h_e = poisson_extension(K, W, word(K, ()))
vals = {s: poisson_extension(K, W, word(K, (s,))) for s in (1, -1, 2, -2)}
print(f"\nPoisson extension h(e) = {h_e}, neighbors {vals}")
print(f"mean over neighbors = {sum(vals.values())/4} (harmonicity at the root)")

worst = 0.0
for g in free_ball(K, 6):
    avg = sum(poisson_extension(K, W, nb) for nb in neighbors(g)) / (2 * K)
    worst = max(worst, abs(avg - poisson_extension(K, W, g)))
print(f"worst mean-value residual on the radius-6 ball: {worst:.2e}")

print(f"\nalong the same walks, h(X_n) settles on the escape indicator:")
print(f"  conclusive paths: {mart.conclusive_fraction:.4f}, "
      f"agreement at 1e-3: {mart.agreement_fraction:.4f}")

print(f"\naveraged square of h at the root after 60 steps: {dia.estimate:.4f}")
print(f"  boundary product value (escape probability): {dia.boundary_value}")
print(f"  pointwise product value h(e)^2:              {dia.pointwise_value}")
print("The averaged products converge to the boundary value, not the pointwise")
print("one -- the coset-periodicity dichotomy of the finite case genuinely fails.")
