"""
Combinations s T + T^* on normal matrices
=========================================

A finite hyponormal matrix is already normal, so random normal
matrices are the exact finite model for the transfer results: bounded
below passes between T and s T + T^* off the unit circle, with
quantitative constants, and fails on the circle only for genuinely
infinite phenomena like the shift.
"""

import numpy as np

from berglab import (
    adjoint_mix,
    mix_bound_check,
    mix_sandwich_check,
    mix_transfer_check,
    normality_defect,
    random_normal_matrix,
    shift_window_demo,
    smallest_singular_value,
    toeplitz_analytic,
)

rng = np.random.default_rng(42)
t = random_normal_matrix(rng, 10)
print(f"random normal matrix: commutator defect {normality_defect(t):.1e}")

# |s| < 1: sigma_min(s T + T^*) >= (1 - |s|) sigma_min(T)
check = mix_bound_check(t, 0.4 + 0.3j)
print(f"\n|s| = 0.5: sigma_min(mix) = {check.sigma_mix:.4f} "
      f">= floor {check.lower_bound:.4f}: {check.bound_holds}")

# |s| > 1: every vector sees ratios inside [|s| - 1, |s| + 1]
check = mix_sandwich_check(t, 2.0, trials=2000, rng=rng)
print(f"|s| = 2:   observed ratio range [{check.ratio_min:.4f}, {check.ratio_max:.4f}] "
      f"inside [{check.lower:.0f}, {check.upper:.0f}]: {check.within_bounds}")

# |s| != 1: invertibility transfers in both directions
check = mix_transfer_check(t, 3.0j)
print(f"|s| = 3:   T invertible {check.t_invertible}, "
      f"mix invertible {check.mix_invertible}, transfer {check.transfer_holds}")

# the non-normal content lives in the shift compression: its adjoint
# annihilates the constant function, yet the mix stays bounded below
# on windows where the truncation is exact
demo = shift_window_demo(64, 2.0)
print(f"\nshift, N = 64: ||A* e0|| = {demo.witness_adjoint_norm:.0f} "
      f"but ||(2A + A*) e0|| = {demo.witness_mix_norm:.6f}")
print(f"window ratios: adjoint {demo.window_ratio_adjoint:.1e}, "
      f"mix {demo.window_ratio_mix:.4f}")

# on the circle the mix of the shift is normal, but its symbol 2 Re z
# vanishes inside the disc: the smallest singular value sinks slowly
# toward zero instead of stabilizing
mix = adjoint_mix(toeplitz_analytic([0.0, 1.0], 64), 1.0)
print(f"\n|s| = 1 shift mix: normality defect {normality_defect(mix):.1e}, "
      f"smallest singular value {smallest_singular_value(mix):.2e}")
