"""Exact mod-l Milnor K-theory over rational function fields on a computable
algebraic closure of F_p, with the lattice, geometry and group-side machinery
needed to run the reconstruction recipes at desk scale."""

from .groundfield import (
    INF,
    CoordValuation,
    FieldTower,
    FunctionField,
    GroundElem,
    RatFunc,
    SparsePoly,
)
from .kmilnor import (
    UNKNOWN,
    Certificate,
    KContext,
    ParshinChain,
    Symbol,
    coordinate_chain,
    monomial_pullback,
    tame_chain,
    tame_step,
)
from .lattice import (
    DeltaSet,
    LatticeFragment,
    RationalSubgroup,
    SubgroupFragment,
    Universe,
    delta_set,
    div_ell,
    epsilon_rigidity_check,
    omega,
    recover_rank_1,
    recover_rank_r,
)
from .geometry import (
    ClosureGeometry,
    check_axioms,
    eval_lcl,
    flats_by_covers,
    transfer_isomorphism,
)
from .abelcentral import (
    AbcGroup,
    MultFragment,
    duality_check,
    h2_brute_force,
    kummer_bridge,
    upsilon,
    word_normal_form,
)

__all__ = [
    "INF", "CoordValuation", "FieldTower", "FunctionField", "GroundElem",
    "RatFunc", "SparsePoly",
    "UNKNOWN", "Certificate", "KContext", "ParshinChain", "Symbol",
    "coordinate_chain", "monomial_pullback", "tame_chain", "tame_step",
    "DeltaSet", "LatticeFragment", "RationalSubgroup", "SubgroupFragment",
    "Universe", "delta_set", "div_ell", "epsilon_rigidity_check", "omega",
    "recover_rank_1", "recover_rank_r",
    "ClosureGeometry", "check_axioms", "eval_lcl", "flats_by_covers",
    "transfer_isomorphism",
    "AbcGroup", "MultFragment", "duality_check",
    "h2_brute_force", "kummer_bridge", "upsilon", "word_normal_form",
]

__version__ = "0.1.0"
