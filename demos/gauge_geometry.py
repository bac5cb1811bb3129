"""
Semi-solid sets and their gauges
================================

A semi-solid set collects everything between 0 and the sub-convex hull of
its generators.  Its gauge (Minkowski functional) answers "how far must the
set be inflated to cover a point?" -- the geometric face of a minimal
superreplication price.  Every value below is an exact LP optimum.
"""

from fractions import Fraction as F

from noarb import (
    SampleSpace,
    SemiSolidSet,
    minkowski,
    semisolid_member,
    sup_norm,
    zero_set_trivial,
)

space = SampleSpace(["a", "b", "c"], [F(1, 3)] * 3)
B = SemiSolidSet(space, [
    space.variable([1, 1, 0]),
    space.variable([0, 2, 2]),
])

print("generators:", [[str(v) for v in g.values] for g in B.generators])
print("sup-norm bound:", sup_norm(B))
print("only 0 survives every shrinking:", zero_set_trivial(B))

# membership at different budget levels: level alpha scales the whole set
x = space.variable([F(1, 2), F(3, 2), 1])
for alpha in (F(1, 4), F(1, 2), 1):
    print(f"x in {alpha}*B:", semisolid_member(B, x, alpha))

# the gauge is the exact threshold level: attained, never approximated
gauge = minkowski(B, x)
print("gauge of x:", gauge)
assert semisolid_member(B, x, gauge)
assert not semisolid_member(B, x, gauge - F(1, 1000))

# gauges respect the componentwise order and scale linearly
y = space.variable([F(1, 4), 1, F(1, 2)])   # y <= x componentwise
print("gauge of y below x:", minkowski(B, y), "<=", gauge)
print("gauge of 7x:", minkowski(B, x.scale(7)), "= 7 *", gauge)

# a direction no generator can dominate has infinite gauge
narrow = SemiSolidSet(space, [space.variable([1, 1, 0])])
print("gauge outside the reachable directions:", minkowski(narrow, space.indicator("c")))
