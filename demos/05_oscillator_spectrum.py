"""The coupled-oscillator application: spectrum and residual tables.

The closed-form eigenvalues depend on the quantum numbers only through
their norm; the ground states are radial Hermite polynomials under a
Gaussian weight.  Residuals of the star-product eigenvalue equations
are tabulated against the truncation order rather than asserted to
vanish.  The lead factor of each product (a complex coordinate, H or 1)
is a polynomial, so each series stops at that factor's degree and the
rows past it repeat.

Run:  python demos/05_oscillator_spectrum.py
"""

import random
from fractions import Fraction

from nstar import (
    HamiltonianSpec,
    QuantumNumber,
    ThetaConfig,
    build_hamiltonian,
    energy,
    ground_state,
    residual_report,
)

cfg = ThetaConfig(3, (Fraction(1), Fraction(1), Fraction(1)))

print("-- Hamiltonians -----------------------------------------------------")
free = HamiltonianSpec(3)
print("free:        ", build_hamiltonian(free))
coupled = HamiltonianSpec(3, lambda_pair={(1, 2): Fraction(1, 2), (2, 3): Fraction(-1)})
print("pair-coupled:", build_hamiltonian(coupled))
diag = HamiltonianSpec(3, diag_lambdas=((Fraction(1),) * 3, (Fraction(1, 4),) * 3))
print("diagonal:    ", build_hamiltonian(diag))

print("\n-- spectrum -----------------------------------------------------------")
print(f"{'|nbar|':>6} {'E (free)':>10} {'E (diagonal, quartic)':>22}")
for m in range(5):
    nbar = QuantumNumber((m, 0, 0))
    e_free = energy(1, nbar, cfg, free)
    e_diag = energy(1, nbar, cfg, diag)
    print(f"{nbar.norm:>6} {str(e_free):>10} {str(e_diag):>22}")
print("at |nbar| = 0 every spectrum collapses to theta_k * n/2.")

print("\n-- ground states --------------------------------------------------------")
for k in range(3):
    print(f"state {k}: ({ground_state(k, 3).poly}) * exp(-|x|^2/2)")

print("\n-- residuals vs truncation order -----------------------------------------")
rng = random.Random(3)
points = [tuple(Fraction(rng.randint(-150, 150), 100) for _ in range(3))
          for _ in range(12)]
report = residual_report(free, cfg, 0, 5, points)
print(f"ground state k=0, {len(points)} sample points, E = {report['energy']}")
print(f"{'order':>5} {'annihilation max':>18} {'eigen-equation max':>20}")
for row in report["rows"]:
    print(f"{row['order']:>5} {row['ground_max']:>18.6g} {row['eigen_max']:>20.6g}")
print("(a report of behavior, not a convergence claim)")
