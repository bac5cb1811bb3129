"""
Certified exact linear programming
==================================

Every answer from the solver carries a proof that survives re-substitution:
optimal points come with dual multipliers closing the duality gap to zero,
infeasible systems come with a Farkas vector, unbounded problems come with
an explicit improving ray.  All arithmetic is exact, so "equals" means
equals.  An LP is rows Ax {<=, ==, >=} b over variables that are nonnegative
or free, so a bound such as x <= 1 is a row and every certificate holds one
multiplier per row.
"""

from fractions import Fraction as F

from noarb import LpProblem, feasible, solve
from noarb.lp import check_farkas, check_optimal, check_ray

# maximize x + y inside a box: the optimum sits at the corner (1, 1)
box = LpProblem([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1])
out = solve(box)
print("status:", out.status)
print("optimum:", out.objective_value, "at", tuple(map(str, out.primal)))
print("duals:", tuple(map(str, out.dual)), " gap closes exactly:", check_optimal(box, out))

# x >= 1 and x <= 0 cannot hold together; the certificate multipliers
# combine the two rows into the contradiction 0 <= -1
impossible = LpProblem([1], [[-1], [1]], ["<=", "<="], [-1, 0])
out = solve(impossible)
print("\nstatus:", out.status)
print("Farkas multipliers:", tuple(map(str, out.dual)))
print("certificate verifies:", check_farkas(impossible, out))

# pushing x1 = x2 upward never violates x1 - x2 <= 0: unbounded, with a ray
unbounded = LpProblem([1, 0], [[1, -1]], ["<="], [0])
out = solve(unbounded)
print("\nstatus:", out.status)
print("feasible base point:", tuple(map(str, out.primal)), "improving ray:", tuple(map(str, out.ray)))
print("ray verifies:", check_ray(unbounded, out))

# a feasibility-only question: exact martingale weights for a binomial move;
# feasible() answers yes or no, and solve() with the zero objective returns
# the witness point
system = LpProblem([0, 0], [[2, F(1, 2)], [1, 1]], ["==", "=="], [1, 1])
res = solve(system)
print("\nmartingale weights exist:", feasible(system), "witness:", tuple(map(str, res.primal)))
