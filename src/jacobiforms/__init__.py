"""Exact Rankin-Cohen deformations on the algebra of weak Jacobi forms.

The package works in the bigraded algebra C[E4, E6, A^{+-1}, B] with exact
rational coefficients: derivations given on generators, the bracket
families they generate, the classification of the admissible Poisson
brackets, and truncated q-expansions used to cross-check the symbolic side
against Fourier expansions.
"""

from .elements import (
    A,
    A_INV,
    B,
    Bidegree,
    BidegreeError,
    BigradedElement,
    BudgetExceeded,
    E4,
    E6,
    F2,
    GENERATORS,
    InternalInvariantError,
    Monomial,
    ONE,
    ParseError,
    ZERO,
    bidegree,
    constant,
    format_element,
    from_json_dict,
    membership,
    monomial,
    monomial_basis,
    parse_element,
    to_json_dict,
    work_budget,
)
from .derivations import (
    Derivation,
    EulerWeighting,
    commutator,
    d_alpha,
    delta_beta,
    euler_commutator_check,
    flat,
    iterate,
    make_derivation,
    oberdieck,
    partial_u,
    pi,
    pochhammer_apply,
    serre,
    serre_ab,
    sharp,
    zero_derivation,
)
from .brackets import (
    BracketFamily,
    accol,
    bracket_n,
    bracket_sum,
    cm_bracket,
    crochet,
    escaping_orders,
    gbinom,
    mu1,
    orc,
    rc_classical,
    rc_localized,
    scal,
    src,
    star_truncated,
)
from .classifier import (
    FamilyLabel,
    IndexWeight,
    PoissonBracket,
    PoissonParams,
    ScalingAutomorphism,
    bracket_from_params,
    classify,
    family_a,
    family_b,
    family_c1,
    family_c2,
    family_d,
    family_e,
    iso_condition,
    modular_isomorphic,
    normal_form,
    params_from_mu1,
    rc_shape_extract,
    relations_residual,
    scaling_between,
)
from .qseries import (
    JacobiSeriesBundle,
    LaurentPolyW,
    QSeries,
    b_series,
    bernoulli,
    delta_series,
    eisenstein,
    evaluate,
    evaluate_quasimodular,
    j1_series,
    j1g_series,
    j2_series,
    make_bundle,
    oberdieck_series,
    sigma,
    theta_quotient_A,
)
from .report import VerificationReport
from .verifier import (
    check_associativity,
    check_bidegree_law,
    check_poisson,
    check_stability,
    check_vinset,
    random_homogeneous,
    scan_conjecture,
    series_consistency,
)

from . import brackets, classifier, derivations, elements, qseries, verifier

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level memo (lru_cache) of the package: unpacked
    monomials, power sequences, binomials and their integer rows, Bernoulli
    numbers, generator powers and capped bases.  Long sweeps call it to stay
    bounded; afterwards the package computes as a fresh process does."""
    for module in (elements, derivations, brackets, classifier, qseries, verifier):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
