"""
Sigma_min trends and invertibility verdicts
===========================================

Finite sections cannot certify invertibility, but their smallest
singular values either stabilize above a floor or collapse, and for
harmonic symbols that split tracks whether the symbol modulus stays
away from zero.
"""

from berglab import (
    HarmonicSymbol,
    PolynomialSymbol,
    bounded_below_trend,
    inf_modulus,
    invertibility_verdict,
)

cases = [
    ("phi = 2 + z                ", HarmonicSymbol(1.0, 0.0, PolynomialSymbol([2.0, 1.0]))),
    ("phi = 2Re(2 + z)           ", HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))),
    ("phi = z + 2 conj(z)        ", HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))),
    ("phi = (2+z) + 0.5 conj(2+z)", HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0]))),
]

print("sigma_min over N = 16 .. 256:")
for label, phi in cases:
    trend = bounded_below_trend(phi)
    values = "  ".join(f"{s:9.3e}" for s in trend.sigma_min)
    print(f"  {label}  {values}")

print("\nverdicts against the grid minimum of |phi|:")
for label, phi in cases:
    report = invertibility_verdict(phi)
    print(f"  {label}  inf ~ {report.inf_estimate:8.5f}   {report.verdict}")

# the grid minimum is only an upper bound for the true infimum; the
# scan reports where it was attained so the claim can be inspected
scan = inf_modulus(cases[0][1])
print(f"\nargmin of |2 + z| on the default grid: {scan.argmin:.6f} "
      f"(the boundary point closest to -1 the grid can see)")
