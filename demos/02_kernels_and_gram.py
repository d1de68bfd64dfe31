"""Cross-kernel inner products and the Gram pipeline, step by step.

The Gram matrix W holds the pairwise inner products of the smoothing
kernels centred at the observations.  Its PSD square root M and the
pair selectors produce the matrix whose singular values estimate the
spectrum of the smoothed pair operator.
"""

import numpy as np

from hmmorder import KernelSpec, ObservedSeries
from hmmorder.gram import (
    build_gram,
    build_selectors,
    build_shifted_product,
    psd_sqrt,
    singular_spectrum,
)
from hmmorder.kernels import cross_gram

# closed forms at a glance
g = KernelSpec("gaussian", 1.0)
print("gaussian phi_1(a, a)      =", cross_gram(g, [0.0], [0.0]))
print("gaussian phi_1(a, a+2)    =", cross_gram(g, [0.0], [2.0]))
v = KernelSpec("vonmises", 1.0)
print("von Mises phi_1(a, a)     =", cross_gram(v, [1.0], [1.0]))
print("von Mises phi_1(a, a+pi)  =", cross_gram(v, [1.0], [1.0 + np.pi]))
print()

# a tiny series end to end
rng = np.random.default_rng(5)
y = np.concatenate([rng.normal(-2, 0.5, 15), rng.normal(2, 0.5, 16)])
rng.shuffle(y)
series = ObservedSeries.from_points(y)
kernel = KernelSpec("gaussian", 0.6)

w = build_gram(series, kernel)
print(f"Gram matrix: {w.shape}, symmetric: {np.array_equal(w, w.T)}")
eigvals = np.linalg.eigvalsh(w)
print(f"eigenvalue range: [{eigvals[0]:.2e}, {eigvals[-1]:.2e}]")

m = psd_sqrt(w)
print(f"square-root residual ||MM - W||_F = {np.linalg.norm(m @ m - w):.2e}")

sel = build_selectors(series)
b = build_shifted_product(m, sel)
spectrum = singular_spectrum(b, l_max=6)
print("leading singular values:", np.round(spectrum.sigma, 5))
print("squared Frobenius mass :", round(spectrum.frob_sq, 6))
print()
print("two well separated emission clusters leave two dominant values,")
print("the rest is smoothing noise")
