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

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop all memoized intermediates (keeps long parameter sweeps bounded)."""
    from . import brackets as _brackets
    from . import derivations as _derivations
    from . import elements as _elements
    from . import qseries as _qseries

    _brackets.clear_caches()
    _derivations.clear_caches()
    _elements._exponents.cache_clear()
    _qseries.clear_caches()
