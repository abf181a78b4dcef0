"""
Momentum-space distributions
============================

Take the momentum probability density of a deformed state from the exact
transform (a Bessel-K expression in k) and inspect it: where it peaks, how
well it closes under Parseval, and how its grid moments line up with the
position-side moment suite.

Also shown: the numerical Fourier-quadrature oracle that checks the Bessel
form, and a quarantined amplitude route (a confluent-hypergeometric
expression reproduced exactly as printed in its source).  Near k = 0 the
printed form disagrees with both by design; run `qcoherent verify` to see
the discrepancy reported as structured findings rather than patched over.

Run with:  python3 demos/momentum_distribution.py
"""

import math

import numpy as np

from qcoherent import (
    grid_momentum_moments,
    moments_oracle,
    momentum_amplitude_bessel,
    momentum_amplitude_closed,
    momentum_amplitude_oracle,
    momentum_pd,
)

alpha = 0.3j  # pure imaginary alpha boosts the state: <p> = sqrt(2) Im alpha

for q in (1.2, 2.0):
    dist = momentum_pd(q, alpha, method="oracle")
    k = dist.k_values
    pd = dist.pd_values
    peak = k[np.argmax(pd)]
    mean_k, mean_k2 = grid_momentum_moments(dist)
    pos = moments_oracle(q, alpha)
    print(f"q = {q}")
    print(f"  Parseval total       = {dist.parseval_total:.12f}")
    print(f"  pd argmax at k       = {peak:+.4f}   (naive Gaussian boost: {math.sqrt(2) * alpha.imag:+.4f})")
    print(f"  <k>  grid vs <p>     = {mean_k:+.8f} vs {pos.mean_p:+.8f}")
    print(f"  <k^2> grid vs <p^2>  = {mean_k2:.8f} vs {pos.mean_p2:.8f}")
    print()

# ---------------------------------------------------------------------------
# The quarantined closed form: fine away from the origin is NOT the story;
# its |k|^(2p-1) prefactor forces amplitude -> 0 at k = 0 while the direct
# transform stays finite.  Faithful reproduction, honest disagreement.
# ---------------------------------------------------------------------------
q = 1.5
print(f"closed-form amplitude vs the exact transform at q = {q}, alpha = {alpha}:")
for k in (0.05, 0.5, 2.0):
    a_be = momentum_amplitude_bessel(q, alpha, k)
    a_or = momentum_amplitude_oracle(q, alpha, k)
    a_cl = momentum_amplitude_closed(q, alpha, k)
    print(f"  k = {k:>4}:  |Bessel| = {abs(a_be):.6f}   |oracle - Bessel| = {abs(a_or - a_be):.1e}"
          f"   |closed| = {abs(a_cl):.6f}")
print("  (the closed route exists to be compared against, not trusted)")
