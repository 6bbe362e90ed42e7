"""Orlicz and Lp norms of operators, computed by two routes that must agree.

Route A applies the norm to the singular value function under the weighted
measure; route B applies it to the weighted rearrangement under Lebesgue
measure.  Because the weighted rearrangement is exactly the rearrangement of
the singular value function under the weighted measure, the two are norms of
equimeasurable data and coincide, for every Orlicz function and every p.
"""

import math

from wrearr import (
    Algebra,
    NormSpec,
    Operator,
    StepFunction,
    StepWeight,
    WeightedContext,
    capped,
    cosh_minus_one,
    l_log_l,
    luxemburg_norm,
    membership_route_a,
    membership_route_b,
    modular,
    norm_route_a,
    norm_route_b,
    power,
    LEBESGUE,
)

blocks = Algebra.matrix_blocks([3], [1.0])
ctx = WeightedContext(blocks, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
a = Operator.from_diagonal(blocks, [3.0, 1.0, 2.0])

# The Luxemburg norm scales a function until its modular drops to 1.
# For the square function and an indicator this has the closed form
# (interval length)^(1/2).
chi = StepFunction([0, 4], [1.0])
print("modular of chi_[0,4) at scale 1:", modular(power(2), chi, LEBESGUE))
print("Luxemburg norm for u^2:", luxemburg_norm(power(2), chi, LEBESGUE), "(= 4^(1/2))")

# The two operator-norm routes, for the whole built-in family.
print(f"\n{'norm':<18} {'route A':>18} {'route B':>18} {'difference':>12}")
for spec in [
    NormSpec.lp(1),
    NormSpec.lp(2),
    NormSpec.lp(3),
    NormSpec.lp(math.inf),
    NormSpec.orlicz(cosh_minus_one()),
    NormSpec.orlicz(l_log_l()),
    NormSpec.orlicz(power(2)),
    NormSpec.orlicz(capped(1.0)),
]:
    va = norm_route_a(ctx, spec, a)
    vb = norm_route_b(ctx, spec, a)
    print(f"{spec.label():<18} {va:>18.12f} {vb:>18.12f} {abs(va - vb):>12.2e}")

# The L2 value by hand: the squared singular values 9, 4, 1 carry weight
# masses 2, 1, 1, so the squared norm is 9*2 + 4 + 1 = 23.
print("\nL2 by hand: sqrt(23) =", math.sqrt(23))

# L1 is the weighted trace itself.
from wrearr import weighted_trace

print("L1 equals the weighted trace:",
      norm_route_a(ctx, NormSpec.lp(1), a), "=", weighted_trace(ctx, a))

# A function that is infinite past a threshold exercises the extended-real
# paths: scales below the essential sup give an infinite modular, so the
# norm is the larger of the essential sup and the L1 norm.
print("\ncapped(1) norm of a:", norm_route_a(ctx, NormSpec.orlicz(capped(1.0)), a))

# Membership: is there any positive scale with a finite modular?  Both
# routes must answer identically.
for spec in [NormSpec.orlicz(capped(1.0)), NormSpec.orlicz(cosh_minus_one()), NormSpec.lp(3)]:
    print(f"membership ({spec.label()}):",
          membership_route_a(ctx, spec, a), membership_route_b(ctx, spec, a))
