"""Exact phase-space values used to judge reconstructions.

Shows the alternating-sum Wigner evaluator on states with known closed
forms, the displaced photon distributions it is built from, the weighted
sums of the same distributions that give other quasiprobability orderings,
and the identity linking detector loss to Gaussian smoothing.
"""

from math import factorial

import numpy as np

from emtomo import (
    apply_loss_channel,
    cat_state,
    coherent_state,
    displaced_photon_distribution,
    fock_state,
    s_ordered_quasidistribution,
    vacuum_state,
    wigner_exact,
)

pi = np.pi

print("known Wigner values:")
print(f"  vacuum at origin        {wigner_exact(vacuum_state(), 0, 0, 20):+.12f}"
      f"   (1/pi = {1/pi:.12f})")
print(f"  |1> at origin           {wigner_exact(fock_state(1, 3), 0, 0, 20):+.12f}"
      f"   (-1/pi)")
odd_cat = cat_state(1.5j, pi, 26)
print(f"  odd cat at origin       {wigner_exact(odd_cat, 0, 0, 40):+.12f}   (-1/pi)")
alpha = 1.0
coh = coherent_state(alpha, 18)
q0 = np.sqrt(2.0) * alpha
print(f"  coherent(1) at center   {wigner_exact(coh, q0, 0, 40):+.12f}   (+1/pi)")

# The evaluator displaces the state to the phase-space point and sums the
# resulting photon distribution with alternating signs.  For the vacuum the
# displaced distribution is an exact Poisson law.
q, p = 1.2, -0.7
dist, tail = displaced_photon_distribution(vacuum_state(), q, p, 30)
lam = 0.5 * (q * q + p * p)
ref = lam ** np.arange(31) * np.exp(-lam) / \
    np.array([factorial(n) for n in range(31)], dtype=float)
print(f"\ndisplaced vacuum at ({q}, {p}): mean {np.arange(31) @ dist.probs:.6f} "
      f"(expected {lam:.6f}), max gap to Poisson {np.max(np.abs(dist.probs - ref)):.2e}")

# Gaussian smoothing of the Wigner function gives the s-ordered family, each a
# weighted sum of the same displaced distribution; one unit of smoothing is
# the Husimi function rho_0 / (2 pi), which is never negative.
husimi0 = s_ordered_quasidistribution(odd_cat, 0.0, 0.0, 1.0, 40)
print(f"\nodd cat Husimi value at the origin: {husimi0:.3e} (>= 0 even though "
      "the Wigner value is -1/pi)")
vac_h = s_ordered_quasidistribution(vacuum_state(), 0.0, 0.0, 1.0, 90)
print(f"vacuum Husimi at origin: {vac_h:.12f} (1/(2 pi) = {1/(2*pi):.12f})")

# Losing a fraction 1-eta of the light is the same as evaluating a smoothed
# quasidistribution of the undamaged state on a rescaled grid.
eta = 0.85
s = (1.0 - eta) / eta
lossy = apply_loss_channel(odd_cat, eta)
for q, p in [(0.0, 0.0), (0.4, 1.1)]:
    lhs = s_ordered_quasidistribution(odd_cat, q, p, s, 70)
    rhs = eta * wigner_exact(lossy, np.sqrt(eta) * q, np.sqrt(eta) * p, 70)
    print(f"loss identity at ({q}, {p}): smoothed {lhs:+.9f}  "
          f"lossy-state wigner {rhs:+.9f}  gap {abs(lhs - rhs):.2e}")
