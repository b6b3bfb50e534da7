"""Exact workbench for the bicyclic monoid, free *-monoids, and their free product."""

import sys as _sys
import types as _types

from .algebra import Element, GaussianRational, delta, linear_combine, unit, zero
from .embedding import (
    ElementMatrix,
    Embedding,
    GammaSequence,
    injectivity_rank,
    inverse_search,
    mat_inverse_search,
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

# the float sidecar's names, resolved on first use so that importing pqt does not import numpy
_OPER_NAMES = ("RepConfig", "ShiftRepresentation", "boundary_exactness_check", "convergence_report", "gamma_from_rep", "op_norm")


def __getattr__(name: str):
    if name in _OPER_NAMES:
        from . import oper

        return getattr(oper, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_OPER_NAMES})


class _Package(_types.ModuleType):
    """Binds the sidecar's names once ``pqt.oper`` loads, by any import, as an eager import would.

    So code that reads or replaces the package's attributes, such as the
    benchmark tracer, finds them there whenever the sidecar is loaded.
    """

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name == "oper":  # the import system binds a loaded submodule on its package
            for attr in _OPER_NAMES:
                super().__setattr__(attr, getattr(value, attr))


_sys.modules[__name__].__class__ = _Package
