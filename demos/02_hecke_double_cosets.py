"""
Double cosets and the Hecke relation
====================================

S3 acting on three points (the coset space by a transposition
subgroup) has two pair orbits: the diagonal and everything else.  The
off-diagonal arrow d satisfies the Hecke relation

    [d][d] = 2[1] + [d]

and its weights show why this table is not a group: |d| counts a fiber
of size two, so d is not simple.
"""

from fractions import Fraction

from hyperq.algebra import mul
from hyperq.fixtures import s3_coset_action
from hyperq.io import format_element
from hyperq.realization import orbit_atoms, weights

real = orbit_atoms(s3_coset_action())
W = weights(real)
names = W.base.arrow_names

print("arrows:", names, " orbit sizes:", real.orbit_size)
print("left weights :", W.left)
print("right weights:", W.right)
print()

d = {1: Fraction(1)}
print("[d][d] =", format_element(mul(W, d, d), names))

# the same computation with plain integer matrices: square the 0/1
# incidence matrix of the off-diagonal orbit and count paths
# (membership is one flat list, the orbit of (x, y) at x*n + y)
n = real.n_points
M = [[int(real.membership[x * n + y] == 1) for y in range(n)] for x in range(n)]
print()
print("incidence matrix of d, squared:")
for x in range(n):
    print([sum(M[x][t] * M[t][y] for t in range(n)) for y in range(n)])
print("which is 2*I + 1*M: the relation again, entrywise.")
