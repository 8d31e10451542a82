"""Laplace-Stieltjes transforms via the Carson identity.

Evaluation of transforms by independent routes (including distributions
with singular parts), inversion back to densities and CDFs, constructive
Muntz approximation, and fingerprinting of distributions by countably many
transform values.
"""

from .dist_model import (
    BlmJoint,
    BlmSpec,
    Distribution1D,
    JointDist,
    ProductJoint,
    blm_survival,
    exponential,
    gamma_dist,
    make_catalog,
    mixture,
    point_mass,
    positive_stable,
)
from .fingerprint import (
    Fingerprint,
    collision_experiment,
    compare,
    compute_fingerprint,
)
from .inversion import (
    TransformOracle,
    feller_cdf,
    oracle_from_distribution,
    post_widder_density,
    synthesize_derivatives,
    watson_check,
)
from .muntz import (
    MuntzApproximant,
    MuntzSequence,
    divergence_certificate,
    golitschek_coeffs,
    qn_eval,
    sup_norm_estimate,
)
from .transforms import (
    TransformValue,
    closed_form_ls,
    ls_carson,
    ls_direct,
    ls_survival_route,
    transform_value,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BlmJoint",
    "BlmSpec",
    "Distribution1D",
    "Fingerprint",
    "JointDist",
    "MuntzApproximant",
    "MuntzSequence",
    "ProductJoint",
    "TransformOracle",
    "TransformValue",
    "blm_survival",
    "closed_form_ls",
    "collision_experiment",
    "compare",
    "compute_fingerprint",
    "divergence_certificate",
    "exponential",
    "feller_cdf",
    "gamma_dist",
    "golitschek_coeffs",
    "ls_carson",
    "ls_direct",
    "ls_survival_route",
    "make_catalog",
    "mixture",
    "oracle_from_distribution",
    "point_mass",
    "positive_stable",
    "post_widder_density",
    "qn_eval",
    "sup_norm_estimate",
    "synthesize_derivatives",
    "transform_value",
    "verify_identity",
    "watson_check",
]
