"""Exact workbench for the bicyclic monoid, free *-monoids, and their free product.

The float sidecar, which needs numpy, is the submodule ``pqt.oper``; importing pqt does not load it.
"""

from .algebra import Element, GaussianRational, delta, linear_combine, unit, zero
from .embedding import (
    ElementMatrix,
    Embedding,
    GammaSequence,
    injectivity_rank,
    inverse_search,
    mat_mul,
    verify_coordinate_separation,
    verify_support_bound,
)
from .errors import ExprSyntaxError, LimitExceeded, UniverseMismatch
from .states import (
    Character,
    FreeProductState,
    StateConfig,
    Vacuum,
    bc_moment,
    free_moment,
    gram_psd_check,
    trace_f2,
)
from .words import (
    BC,
    BC_IDENTITY,
    BCS,
    F2,
    P,
    Q,
    SINF,
    BCElement,
    FreeGen,
    bc_mul,
    bc_star,
    enumerate_words,
    fg_mul,
    map_to_f2,
    pw_len,
    pw_mul,
    pw_star,
    render_word,
    t,
)

__version__ = "0.1.0"
