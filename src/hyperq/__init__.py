"""Exact convolution algebras of group actions.

A finite group action on a set X induces an algebra of binary relations
on X: the atoms are the orbits of pairs, composition counts intermediate
points, and the resulting integer structure constants carry a weight
theory (left and right fiber sizes, a multiplicative character chi, a
time evolution and a KMS weight), all computed here in exact arithmetic.
The same data is exposed on the lattice side as an atomic quantale with
its axioms, its site, and Q-valued sets and matrices over it.
"""

from importlib import import_module as _import_module

from .errors import (
    BoundExceeded,
    DimensionMismatch,
    HyperqError,
    InfiniteCoefficient,
    NotModular,
    NotSemisimple,
    OrderBoundExceeded,
    SchemaError,
    ZeroWeight,
)
from .checks import Check, Report
from .extnat import INF, ExtNat, check_extnat, extnat_from_json, extnat_to_json, is_finite
from .quantale import (
    AtomicQuantale,
    SiteDescription,
    bottom,
    check_axioms,
    is_grothendieck,
    q_mul,
    q_star,
    simple_atoms,
    site,
    top,
    unit_element,
)
from .hypergroupoid import (
    Hypergroupoid,
    check_hg_axioms,
    check_morphism,
    from_quantale,
    is_semisimple,
    is_simple,
    preserves_star,
    same_structure,
    to_quantale,
)
from .realization import (
    ConcreteRealization,
    CosetSpec,
    PermAction,
    coset_space,
    coset_union_action,
    count_mu,
    disjoint_union,
    enumerate_group,
    from_cycles,
    orbit_atoms,
    weights,
)
from .algebra import (
    KmsReport,
    WeightedHypergroupoid,
    chi,
    convolve_ext,
    derived_weights,
    e_basis,
    eta,
    is_locally_finite,
    kms_check,
    left_finite_witness,
    mu_semisimple,
    mul,
    sigma,
    sigma_imag,
    star,
    validate_weights,
)
from .io import (
    InputSpec,
    format_complex,
    format_element,
    load_input,
    parse_element,
    parse_input,
)

# the Q-valued sets are exported on first use (PEP 562), so that importing
# the command line, which never reads them, does not load them
_QSETS_NAMES = frozenset("""
    FiniteLattice ProjObject QSet QuantaleMatrix RightAction build_lattice
    check_modular_action check_q_bilinear check_qfunction check_qrelation
    check_qset identity_matrix is_functional is_proj_morphism
    is_proj_object matmul proj_object qmatrix qset quantale_lattice
    singleton_qset star_transpose zero_matrix
""".split())

__version__ = "0.1.0"

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | _QSETS_NAMES | {"qsets"})


def __getattr__(name):
    if name in _QSETS_NAMES or name == "qsets":
        qsets = _import_module(".qsets", __name__)
        return qsets if name == "qsets" else getattr(qsets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # the names an eager import of qsets would show, with the submodules
    # imported since
    return sorted({*globals(), *_QSETS_NAMES, "qsets"}
                  - {"__getattr__", "__dir__", "_import_module", "_QSETS_NAMES"})
