"""
Three routes to the Berezin transform
=====================================

Direct integration against the squared kernel, the quadratic form of a
truncated matrix, and the closed form available for harmonic symbols.
They agree where all are trustworthy, and the matrix route refuses the
boundary region instead of quietly degrading.
"""

import numpy as np

from berglab import (
    HarmonicSymbol,
    NumericalError,
    PolynomialSymbol,
    QuadratureSpec,
    berezin_harmonic,
    berezin_integral,
    berezin_matrix,
    toeplitz_harmonic,
)

phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0]))
op = toeplitz_harmonic(phi, 128)
spec = QuadratureSpec(96, 384)

# harmonic symbols are fixed points of the transform, so the closed
# form is just phi(z) and the other routes should land on it
print("route agreement for phi = (2+z) + 0.5 conj(2+z):")
for z in (0.0, 0.3 + 0.4j, -0.7j, 0.85):
    vi = berezin_integral(phi, z, spec)
    vm = berezin_matrix(op, z)
    vh = berezin_harmonic(phi, z)
    print(f"  z = {z!s:10}  integral {vi.value:.8f}  "
          f"matrix diff {abs(vm.value - vh.value):.1e}  integral diff {abs(vi.value - vh.value):.1e}")

# each sample carries its own error estimate
z = 0.9
sample = berezin_integral(phi, z, QuadratureSpec(64, 128))
print(f"\nat |z| = 0.9 with the default rule: estimate {sample.error_estimate:.1e}, "
      f"true error {abs(sample.value - phi(z)):.1e}")

# the matrix route knows its truncated kernel tail and refuses when
# the requested point would need more basis vectors than it has
try:
    berezin_matrix(op, 0.99)
except NumericalError as exc:
    print(f"\nmatrix route at |z| = 0.99: refused\n  {exc}")
