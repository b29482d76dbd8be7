"""Exact and numerical verification tools for abelian scrolls in projective space."""

__version__ = "0.1.0"

from .invariants import (
    ScrollData,
    ScrollReport,
    build_report,
    hyperplane_power_coefficient,
    top_chern_normal,
)
from .ring import RingShape, TruncPoly, binomial, make_poly, mul, power_signed
from .verifier import (
    conjecture_family_report,
    inequality_check,
    sweep,
    termwise_check,
    very_ample_bound,
)

# The theta names load on first access (PEP 562), so that importing the exact
# layer (ring, invariants, verifier, the CLI) does not import numpy.
_THETA_NAMES = frozenset({
    "ClusterProbe",
    "ThetaEmbedding",
    "cyclic_group",
    "scroll_smoothness_probe",
    "span_rank",
    "theta_basis_eval",
    "torsion_point",
    "very_ampleness_cluster_probe",
})


def __getattr__(name: str):
    if name in _THETA_NAMES:
        from . import theta

        return getattr(theta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
