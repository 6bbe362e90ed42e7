"""Step functions, measures, and decreasing rearrangement.

Everything in this library is built from one data type: a right-continuous
step function on [0, oo) that vanishes beyond its last breakpoint.  This
script walks through evaluation, integration against the three kinds of
measure (Lebesgue measure, a step density and the exponential weight),
distribution functions, and the decreasing rearrangement.
"""

import numpy as np

from wrearr import (
    LEBESGUE,
    DensityMeasure,
    ExpWeight,
    StepFunction,
    distribution,
    integrate,
    rearrange,
)

# A step function taking 3 on [0,1), 2 on [1,2), 1 on [2,3), then 0.
f = StepFunction([0, 1, 2, 3], [3, 2, 1])
print("f =", f)
print("f(0.5) =", f(0.5), "  f(2.99) =", f(2.99), "  f(3.0) =", f(3.0))

# Construction always canonicalizes: equal neighbours merge, zero tails drop.
g = StepFunction([0, 1, 2, 5, 6], [2, 2, 1, 0])
print("\ncanonical form of (2,2,1,0):", g)

# Integration is an exact finite sum.  Against Lebesgue measure:
print("\nintegral of f dt =", integrate(f, LEBESGUE))

# Against a measure with a step density (2 on [0,1), 1 on [1,3)):
nu = DensityMeasure(StepFunction([0, 1, 3], [2, 1]))
print("integral of f dnu =", integrate(f, nu))

# Against the exponential weight, the measure with density exp(-t):
exp_measure = ExpWeight()
print("integral of chi_[0,2) exp(-t) dt =", integrate(StepFunction([0, 2], [1.0]), exp_measure))

# The distribution function t -> m({f > t}) is again a step function,
# non-increasing and right-continuous in the threshold t.
d = distribution(f, nu)
print("\ndistribution of f under nu:", d)

# The decreasing rearrangement is the generalized inverse of the
# distribution: value u occupies an interval of length m({f = u}).
r = rearrange(f, nu)
print("rearrangement of f under nu:", r)

# Rearrangement is equimeasurable: the Lebesgue distribution of the
# rearranged function equals the nu-distribution of the original.
print("\nequimeasurability check:")
print("  distribution(r, Lebesgue) =", distribution(r, LEBESGUE))
print("  distribution(f, nu)       =", d)

# And it preserves the total integral (change of measure to Lebesgue time).
print("\nintegral preserved:",
      integrate(r, LEBESGUE), "=", integrate(f, nu))

# Values living on nu-null sets are invisible to the rearrangement: here the
# density vanishes from t = 3 on, so a value supported there disappears.
h = StepFunction([0, 3, 4], [1.0, 9.0])
print("\nh =", h)
print("rearrangement of h under nu:", rearrange(h, nu))
