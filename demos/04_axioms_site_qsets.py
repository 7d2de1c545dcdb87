"""
Quantale axioms, the site, and Q-sets
=====================================

Each realized atom table is also an atomic quantale: subsets of atoms
with the orbit product.  This script checks the laws exactly on
the small fixtures, shows that being Grothendieck coincides with the
hypergroupoid being semi-simple, and builds the site and a small Q-set
on the two-point example.
"""

from hyperq.fixtures import (
    delta_quantale,
    s3_coset_action,
    s3_regular_action,
    trivial_pair_action,
)
from hyperq.hypergroupoid import is_semisimple, to_quantale
from hyperq.qsets import check_qset, qmatrix
from hyperq.quantale import check_axioms, is_grothendieck, site
from hyperq.realization import orbit_atoms

actions = {
    "pair": trivial_pair_action(),
    "regular": s3_regular_action(),
    "cosets": s3_coset_action(),
}

for name, action in actions.items():
    H = orbit_atoms(action).hypergroupoid
    Q = to_quantale(H)
    report = check_axioms(Q)
    gro, _ = is_grothendieck(Q)
    semi, _ = is_semisimple(H)
    status = "all pass" if report.ok else "FAILED"
    print(f"{name:8s} atoms={Q.n_atoms}  axioms: {status}  "
          f"grothendieck={gro}  semisimple={semi}")
print()

# the coset fixture fails (Q10): its double-coset arrow admits no
# factorization through simple arrows, exactly because its left weight
# is 2 and not 1

# site of the two-point quantale: objects are the subsets of the unit,
# hom counts follow |q'| ** |q|
Q = to_quantale(orbit_atoms(trivial_pair_action()).hypergroupoid)
S = site(Q)
print("site objects:", [sorted(q) for q in S.objects])
for q in S.objects:
    print("  hom sizes from", sorted(q), ":",
          [len(S.hom(q, qp)) for qp in S.objects])
print()

# the two points form a Q-set with bracket [x,y] = the pair atom (x,y)
report = check_qset(Q, (0, 1), qmatrix([[{0}, {1}], [{2}, {3}]]))
print("two-point Q-set:", ", ".join(
    f"{r.name}={'ok' if r.passed else 'FAIL'}" for r in report.results))

# delta, the smallest quantale that is not Grothendieck
D = delta_quantale()
print("delta grothendieck:", is_grothendieck(D)[0])
