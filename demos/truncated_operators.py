"""
Truncated Toeplitz operators, two ways
======================================

Closed-form entries against brute quadrature, the compression
c A + d A^* of a harmonic symbol, and hyponormality on the window where
the truncation acts exactly.
"""

import numpy as np

from berglab import (
    HarmonicSymbol,
    QuadratureSpec,
    polynomial_symbol,
    toeplitz_analytic,
    toeplitz_harmonic,
    toeplitz_quadrature,
)

# the shift: entries sqrt((n+1)/(n+2)) on the subdiagonal
shift = toeplitz_analytic([0.0, 1.0], 5)
print("truncated shift (real part):")
print(np.round(shift.matrix.real, 4))

# same operator from quadrature, entry by entry
g = polynomial_symbol([0.0, 1.0])
quad = toeplitz_quadrature(g, 5, QuadratureSpec(64, 128), g.tag())
print(f"\nclosed form vs quadrature: max diff {np.max(np.abs(shift.matrix - quad.matrix)):.2e}")

# harmonic symbol phi = c g + d conj(g): the compression is c A + d A^*
phi = HarmonicSymbol(1.0, 0.5, polynomial_symbol([2.0, 1.0]))
op = toeplitz_harmonic(phi, 6)
print(f"\nharmonic truncation Hermitian error (real symbol would be 0): "
      f"{np.max(np.abs(op.matrix - op.matrix.conj().T)):.3f}")

# hyponormality on the window where the truncation acts exactly:
# ||A f|| >= ||A* f|| for every f supported on low degrees
rng = np.random.default_rng(0)
a = toeplitz_analytic([0.0, 1.0], 16).matrix
wins = 0
for _ in range(200):
    f = np.zeros(16, dtype=complex)
    f[:14] = rng.normal(size=14) + 1j * rng.normal(size=14)
    wins += np.linalg.norm(a @ f) >= np.linalg.norm(a.conj().T @ f)
print(f"\nwindowed ||A f|| >= ||A* f||: {wins}/200")
