"""Exact bookkeeping for endoscopic multiplicity bounds on unitary groups.

Everything is computed in exact integer and rational arithmetic: parameter
shapes and their sign characters, elliptic endoscopic data, refinement
chains and the inversion of the stable recursion, cohomological packets
with their Poincare polynomials, decay profiles, and the step-by-step
exponent derivation.  The ``endoscopylab`` console script exposes each
piece; ``selftest`` runs the acceptance checks.
"""

from .params import (
    ArthurShape,
    BlockSignVector,
    GroupChar,
    Summand,
    TwoGroup,
    centralizer_group,
    from_cohomological,
    is_elliptic,
    s_psi,
    shape_from_json,
    shape_to_json,
)
from .endoscopy import (
    EndoscopicDatum,
    InnerFormSpec,
    ParameterSplit,
    bijection,
    check_inner_form,
    dominant_group,
    elliptic_data,
    global_kottwitz_product,
    iota,
    kottwitz_sign_padic,
    kottwitz_sign_real,
    make_split,
)
from .guards import GuardError
from .hyperendoscopy import (
    ChainStep,
    FormalDist,
    GroupSymbol,
    HyperChain,
    chain_expansion,
    chain_iota,
    dominant_contribution,
    enumerate_chains,
    expand_stable,
    verify_inversion,
)
from .cohomology import (
    Bipartition,
    OrderedPartition,
    PoincarePoly,
    brute_poincare,
    degree_R,
    enumerate_bipartitions,
    gaussian_binomial,
    lowest_degree,
    poincare_poly,
)
from .decay import (
    DecayProfile,
    SxResult,
    p_bound_of_bipartition,
    ratio_profile,
    sx_check,
)
from .bounds import (
    Derivation,
    DerivationStep,
    DominanceResult,
    PacketModel,
    coefficient_sum,
    derive_exponent,
    dominance_check,
    i_disc_model,
    savin_exponent,
    stable_coefficient,
)
from .selftest import ALL_CHECKS, CheckResult, run_all

__version__ = "0.1.0"
