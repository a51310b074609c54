"""Quadrature densities of Fock states and the binned measurement kernel.

Walks through the lowest layer of the toolkit: harmonic-oscillator
wavefunctions, the loss-degraded quadrature densities computed two
independent ways (binomial mixture and loss channel), and the
bin-integrated kernel matrix with its column-sum bookkeeping.
"""

import numpy as np

from emtomo import (
    BinGrid,
    ColumnDeficitError,
    build_kernel_matrix,
    fock_state,
    fock_wavefunctions,
    quadrature_density,
)
from emtomo.fock_kernel import lossy_fock_quadrature_density

xs = np.linspace(-6.0, 6.0, 1201)
psi = fock_wavefunctions(8, xs)

print("wavefunction orthonormality (trapezoid on [-6, 6], n <= 8):")
gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], xs, axis=-1)
print(f"  max |<m|n> - delta_mn| = {np.max(np.abs(gram - np.eye(9))):.2e}")

# With perfect detection the quadrature density of |n> is psi_n(x)^2.
# Losses mix in lower Fock densities with binomial weights.  The sampler
# instead applies the loss channel to the density matrix and evaluates the
# phase density of the damaged state; a Fock state has no phase, so both
# give the same curve at any theta.
print("\nlossy densities, two routes (binomial mixture vs loss channel):")
for n, eta in [(0, 0.8), (3, 0.8), (10, 0.55)]:
    mix = lossy_fock_quadrature_density(n, xs, eta)
    channel = quadrature_density(fock_state(n), 0.0, xs, eta)
    mass = np.trapezoid(mix, xs)
    print(f"  n={n:2d} eta={eta}: max route gap {np.max(np.abs(mix - channel)):.2e}, "
          f"mass on [-6, 6] = {mass:.9f}")

# The reconstruction works on histograms, so the continuous densities get
# integrated over the bins of a uniform symmetric grid.  The densities are
# even in x, so the kernel keeps one row per bin of |x| (bins 800 .. 1599):
# column n, doubled, is the exact probability that a sample drawn from Fock
# state n lands in each bin of |x|.
grid = BinGrid(-8.0, 8.0, 1600)
kernel = build_kernel_matrix(grid, 12, 0.85)
sums = 1.0 - kernel.column_deficits
print(f"\nkernel on [-8, 8] x 1600 bins, n <= 12, eta = 0.85:")
print(f"  {kernel.entries.shape[0]} rows of |x| x {kernel.entries.shape[1]} columns, "
      f"worst column deficit {kernel.column_deficits.max():.2e}")
print(f"  column sums: {sums[:4]} ...")

# Columns whose density leaks past the grid edge are refused by default;
# that protects the likelihood model from silently losing probability.
try:
    build_kernel_matrix(grid, 39, 0.9)
except ColumnDeficitError as exc:
    print(f"\nguard at work for n <= 39 on the same window:\n  {exc}")

clipped = build_kernel_matrix(grid, 39, 0.9, max_column_deficit=None)
print(f"  lifted: deficit at n = 39 is {clipped.column_deficits[39]:.3f} "
      "(accepted explicitly)")
