"""
Double cosets and the Hecke relation
====================================

S3 acting on three points (the coset space by a transposition
subgroup) has two pair orbits: the diagonal and everything else.  The
off-diagonal arrow d satisfies the Hecke relation

    [d][d] = 2[1] + [d]

and its weights show why this table is not a group: |d| counts a fiber
of size two, so d is not simple.

S3 is GL_2(F_2), its three points are the flags of F_2^2, and the
relation above is the Iwahori–Hecke relation at q = 2.  It holds one
rank and one prime up too: GL_3(F_3), of order 11 232, acting on its
52 complete flags, the cosets of the upper triangular group B, given as
a coset input.  Each of the two simple reflections s gives an arrow T_s
of weight q = 3, with

    T_s T_s = (q - 1) T_s + q [1]
"""

from fractions import Fraction
from itertools import product

from hyperq.algebra import mul
from hyperq.fixtures import s3_coset_action
from hyperq.io import format_element
from hyperq.realization import CosetSpec, coset_union_action, orbit_atoms, weights

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

# GL_3(F_3) as permutations of the 26 nonzero vectors of F_3^3
vectors = [v for v in product(range(3), repeat=3) if any(v)]
place = {v: i for i, v in enumerate(vectors)}


def perm(rows):
    return tuple(place[tuple(sum(a * b for a, b in zip(row, v)) % 3 for row in rows)]
                 for v in vectors)


diagonal = [[[2 if i == j == k else int(i == j) for j in range(3)] for i in range(3)]
            for k in range(3)]
B = tuple(map(perm, diagonal + [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]))
s1 = perm([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
s2 = perm([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
flags = coset_union_action(CosetSpec(26, B + (s1, s2), (("B", B),)))
W = weights(orbit_atoms(flags))
names = W.base.arrow_names
print()
print("GL_3(F_3) on", flags.n_points, "complete flags:", len(names), "arrows")
print("weights q^l(w):", W.left)
for s in (g for g, w in enumerate(W.left) if w == 3):
    T = {s: Fraction(1)}
    print(f"T_{names[s]} T_{names[s]} =", format_element(mul(W, T, T), names))
