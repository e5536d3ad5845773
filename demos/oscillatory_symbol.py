"""
The oscillatory quotient symbol
===============================

phi = ((1+z)/(1-z))^{it} oscillates without limit near z = 1 and never
extends continuously to the closed disc, yet its modulus stays pinned
inside [e^{-|t| pi / 2}, e^{|t| pi / 2}].  The study verifies the
bounds, the exact triangular factorization, and the sigma_min trend.
"""

from berglab import power_symbol, power_symbol_study

phi = power_symbol(1.0)
# along the real axis the quotient is positive, so phi has modulus 1
# and pure oscillation: the value spins without settling
print("oscillation along the real axis toward z = 1:")
for z in (0.9, 0.99, 0.999):
    print(f"  phi({z}) = {phi(z):.6f}   |phi| = {abs(phi(z)):.6f}")

# off the axis the modulus moves, pinched between the two bounds;
# up the imaginary axis it descends to the per-factor bound
print("modulus along the imaginary axis:")
for z in (0.9j, 0.99j, 0.999j):
    print(f"  |phi({z})| = {abs(phi(z)):.6f}")

study = power_symbol_study(1.0)
print(f"\ngrid minimum of |phi|      {study.grid_min:.6f}")
print(f"product lower bound        {study.modulus_bound:.6f}  (e^-pi)")
print(f"per-factor lower bound     {study.factor_bound:.6f}  (e^-pi/2)")
print(f"factor grid minima         {study.grid_min_plus:.6f}, {study.grid_min_minus:.6f}")
print(f"all bounds hold            {study.bounds_hold}")

# multiplying the truncation of (1-z)^{it} by the truncation of phi
# reproduces the truncation of (1+z)^{it} exactly: triangular products
# commute with truncation, so the residual is floating-point noise
print("\nfactorization residuals by size:")
for n, r in zip(study.sizes, study.residuals):
    print(f"  N = {n:4d}   max |T_minus T_phi - T_plus| = {r:.2e}")

trend = study.trend
print(f"\nsigma_min trend {tuple(round(s, 5) for s in trend.sigma_min)}")
print(f"stabilized: {trend.stabilized} (drift {trend.drift:.2%}), "
      f"floor sits above the product bound {study.modulus_bound:.4f}")
