"""The matrix pipeline carries the spectrum of the smoothed operator.

An independent check: tabulate the empirical smoothed pair density on a
fine grid, treat the scaled table as a discretized integral operator,
and compare its singular values with the matrix pipeline's.  The two
routes share no code beyond the kernel definition.
"""

import numpy as np

from hmmorder import KernelSpec, ObservedSeries, shift_scenario, simulate
from hmmorder.gram import estimate_operator_matrix
from hmmorder.quadrature import quadrature_svd_oracle

series, _ = simulate(shift_scenario(delta=4.0), n_pairs=50, seed=3)
kernel = KernelSpec("gaussian", 0.5)

spectrum = estimate_operator_matrix(series, kernel, l_max=5)
oracle = quadrature_svd_oracle(series, kernel, grid_size=600, k=5)

print(" j   pipeline      quadrature    rel.gap")
for j, (a, b) in enumerate(zip(spectrum.sigma, oracle), start=1):
    print(f" {j}   {a:.8f}   {b:.8f}   {abs(a - b) / b:.2e}")

print()
print("the same holds for circular data and the von Mises kernel:")
angles = np.mod(np.cumsum(np.random.default_rng(4).uniform(-0.7, 0.7, 41)), 2 * np.pi)
circ = ObservedSeries.from_points(angles, kind="circular")
vm = KernelSpec("vonmises", 0.6)
spectrum = estimate_operator_matrix(circ, vm, l_max=4)
oracle = quadrature_svd_oracle(circ, vm, grid_size=500, k=4)
for j, (a, b) in enumerate(zip(spectrum.sigma, oracle), start=1):
    print(f" {j}   {a:.8f}   {b:.8f}   {abs(a - b) / b:.2e}")
