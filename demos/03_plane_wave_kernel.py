"""Star products of plane waves, and the lattice oracle.

Plane waves multiply to a single wave whose coefficient is the
exponential of a kernel; summing the input frequencies gives the output
frequency.  A discrete Fourier oracle realizes the same product from
position samples on a periodic grid, giving an independent numerical
cross-check of the whole wave engine.

Run:  python demos/03_plane_wave_kernel.py
"""

import math
from fractions import Fraction

import numpy as np

from nstar import (
    GridSpec,
    ThetaConfig,
    WaveSum,
    freq_cross,
    grid_oracle_star,
    kernel_exponent,
    star_waves,
)

cfg = ThetaConfig(3, (Fraction(2), Fraction(0), Fraction(0)))

print("-- the kernel on basis frequencies ----------------------------------")
k, q, r = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
expo = kernel_exponent([k, q, r], cfg)
print(f"exponent for basis triple, theta = (2,0,0): {expo.real}")
print(f"so the product picks up the multiplier e^1 = {math.e:.12f}")

out = star_waves([WaveSum.single(1, k), WaveSum.single(1, q), WaveSum.single(1, r)], cfg)
print("star of the three unit waves:", out)

print("\n-- antisymmetric frequency combination ------------------------------")
print("freq_cross((0,1,0), (0,0,1)) =", freq_cross((0, 1, 0), (0, 0, 1)))
p, q, r = (3, 1, 4), (1, 5, 9), (2, 6, 5)
triple = [sum(a * b for a, b in zip(u, freq_cross(v, w)))
          for u, v, w in ((p, q, r), (r, p, q), (q, r, p))]
print("cyclic triple products p.(q x r), r.(p x q), q.(r x p) on (3,1,4),(1,5,9),(2,6,5):",
      triple)

print("\n-- lattice oracle ----------------------------------------------------")
grid = GridSpec(3, 8, 2 * math.pi)
waves = [WaveSum.single(1, k), WaveSum.single(1, q), WaveSum.single(1, r)]
samples = [w.sample_on_grid(grid) for w in waves]
lattice = grid_oracle_star(samples, grid, cfg)
reference = out.sample_on_grid(grid)
err = np.abs(lattice - reference).max() / np.abs(reference).max()
print(f"8^3 grid, closed form vs DFT oracle: max relative error {err:.3e}")

print("\n-- multi-term wave sums ----------------------------------------------")
w1 = WaveSum(3, [(1.0, (1.0, 0.0, 0.0)), (0.5j, (0.0, 1.0, 0.0))])
w2 = WaveSum(3, [(2.0, (0.0, 0.0, 1.0))])
w3 = WaveSum(3, [(1.0, (0.0, 0.0, 0.0)), (-1.0, (1.0, 1.0, 0.0))])
combined = star_waves([w1, w2, w3], cfg)
print(f"star of {len(w1.terms)} x {len(w2.terms)} x {len(w3.terms)} terms "
      f"-> {len(combined.terms)} canonical output terms")
lattice = grid_oracle_star([w.sample_on_grid(grid) for w in (w1, w2, w3)], grid, cfg)
reference = combined.sample_on_grid(grid)
err = np.abs(lattice - reference).max() / np.abs(reference).max()
print(f"engines agree to max relative error {err:.3e}")
