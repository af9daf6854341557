"""Closed-form coordinate products, checked against the expansion engine.

The products of one coordinate with two arbitrary polynomials, and of
two coordinates with one polynomial, have simple closed forms.  These
are theorems of the product definition: this script confirms exact
agreement on random inputs.  The complex-coordinate forms are a
different story; see where they separate below.

Run:  python demos/02_closed_form_identities.py
"""

import random
from fractions import Fraction

from nstar import (
    ThetaConfig,
    complex_pair,
    star_complex_form,
    star_coord_first,
    star_coord_slot,
    star_n,
    star_two_coords,
    x,
)
from nstar.audit import CorpusSpec, sample_poly

rng = random.Random(7)
corpus = CorpusSpec()
cfg = ThetaConfig(3, (Fraction(1), Fraction(2), Fraction(-1, 2)))

print("-- coordinate in the first slot ------------------------------------")
f, g = sample_poly(rng, 3, corpus), sample_poly(rng, 3, corpus)
closed = star_coord_first(1, f, g, cfg)
direct = star_n([x(1, 3), f, g], cfg)
assert closed == direct
print("f =", f)
print("g =", g)
print("closed form == engine:", closed == direct)

print("\n-- two coordinates, one function ------------------------------------")
h = sample_poly(rng, 3, corpus)
for variant in ("sigma-next-middle", "sigma-next-last",
                "sigma2-next-middle", "sigma2-next-last"):
    val = star_two_coords(2, variant, h, cfg)
    print(f"{variant:<20} ->", val)

print("\n-- the n-ary slot formula ------------------------------------------")
cfg4 = ThetaConfig(4, (Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
corpus4 = CorpusSpec(dims=(4,))
polys = [sample_poly(rng, 4, corpus4) for _ in range(3)]
closed4 = star_coord_slot(3, polys[:1], polys[1:], cfg4)
direct4 = star_n([polys[0], x(3, 4), polys[1], polys[2]], cfg4)
assert closed4 == direct4
print("n = 4, coordinate x3 in slot 2: closed form matches the engine.")

print("\n-- complex coordinates ----------------------------------------------")
a, abar = complex_pair(1, 2)
print("a(1,2)          =", a)
print("abar(1,2)       =", abar)
print("a + abar        =", a + abar)
print("a * abar        =", a * abar)

print("\n-- the printed complex-slot forms are NOT theorems -------------------")
f, g = x(2, 3), x(3, 3)
closed = star_complex_form("a-f-g", 1, 2, f, g, cfg)
direct = star_n([a, f, g], cfg)
print("printed form:", closed)
print("engine:      ", direct)
print("difference:  ", closed - direct)
print("the printed forms carry 1/4 prefactors where the expansion yields")
print("sqrt(2)/4, so the auditor records them as failing claims.")
