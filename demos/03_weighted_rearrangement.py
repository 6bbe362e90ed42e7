"""The weighted rearrangement, computed three ways.

The weighted rearrangement of an operator is defined through projections:
the value at t is the smallest operator norm achievable after cutting away
a projection whose complement the weighted functional sizes at most t.  Two
tractable routes compute it exactly, and for small diagonal operators the
defining projection search can be enumerated outright; all three agree.
"""

import numpy as np

from wrearr import (
    Algebra,
    Operator,
    StepFunction,
    StepWeight,
    WeightedContext,
    generalized_inverse,
    singular_value_function,
    step_equal,
    weighted_distribution,
    weighted_rearrangement,
    weighted_rearrangement_oracle,
)

blocks = Algebra.matrix_blocks([3], [1.0])
weight = StepWeight(StepFunction([0, 1, 3], [2.0, 1.0]))
ctx = WeightedContext(blocks, weight)
a = Operator.from_diagonal(blocks, [3.0, 1.0, 2.0])

# Route 1: rearrange the singular value function with respect to the
# measure defined by the weight density.
mu = weighted_rearrangement(ctx, a)
print("weighted rearrangement:", mu)

# Route 2: the generalized inverse of the weighted distribution function.
d = weighted_distribution(ctx, a)
print("weighted distribution: ", d)
print("generalized inverse:   ", generalized_inverse(d))

print("routes 1 and 2 agree:  ", step_equal(mu, generalized_inverse(d)))

# Route 3, the ground truth: enumerate all coordinate-subset projections.
# Dropping one coordinate costs cumulative weight 2, so below t = 2 the top
# entry 3 cannot be avoided; from t = 2 it can.
for t in (0.0, 1.5, 2.0, 2.5, 3.5, 4.5):
    print(f"  t = {t}: rearrangement {mu(t):g}, exhaustive search "
          f"{weighted_rearrangement_oracle(ctx, a, t):g}")

# The plain singular value function spreads values over Lebesgue lengths;
# the weighted one spreads them over weight mass instead.
print("\nunweighted:", singular_value_function(a))
print("weighted:  ", mu)

# When the weight density hits zero, everything beyond its support is
# invisible: with total mass 4, a fourth singular value has nowhere to go.
wide = Algebra.matrix_blocks([4], [1.0])
wctx = WeightedContext(wide, weight)
b = Operator.from_diagonal(wide, [4.0, 3.0, 2.0, 1.0])
mu_b = weighted_rearrangement(wctx, b)
print("\nfour singular values, weight mass 4:", mu_b)
print("routes 1 and 2 agree:",
      step_equal(mu_b, generalized_inverse(weighted_distribution(wctx, b))))

# The rearrangement of a full matrix goes through its singular values.
rng = np.random.default_rng(0)
g = rng.uniform(-1, 1, size=(3, 3))
full = Operator(blocks, blocks=[g])
mu_full = weighted_rearrangement(ctx, full)
print("\nrandom 3x3 block:", mu_full)
print("routes 1 and 2 agree:",
      step_equal(mu_full, generalized_inverse(weighted_distribution(ctx, full))))
