"""Exact root expansions over F_p(t): Hahn-series prefixes, additive
companions, intersection points, and ramification/residue bounds."""

from .ffield import FF, FieldCtx, Embedding, field_ctx, poly_roots
from .ratfun import RatFun
from .hahn import HahnSeries, expands_at
from .hasse import Poly, NewtonLine, taylor_at, evaluate
from .ore import AdditivePolynomial, addpol, is_additive
from .envelope import (
    Breakpoint,
    companion_points,
    intersection_points,
    maxexp,
    maxexp_base,
    maxram,
    order_type_bound,
    paper_base,
)
from .expand import (
    AccumulationReport,
    BranchNode,
    ExpansionTree,
    accumulation_analysis,
    expand_roots,
)

__all__ = [
    "FF", "FieldCtx", "Embedding", "field_ctx", "poly_roots",
    "RatFun", "HahnSeries", "expands_at",
    "Poly", "NewtonLine", "taylor_at", "evaluate",
    "AdditivePolynomial", "addpol", "is_additive",
    "Breakpoint", "companion_points", "intersection_points", "maxram", "maxexp",
    "maxexp_base", "paper_base", "order_type_bound",
    "AccumulationReport", "BranchNode", "ExpansionTree", "accumulation_analysis",
    "expand_roots",
    "Command", "parse_polynomial", "poly_text", "run",
]

__version__ = "0.1.0"

# The CLI names load on first access: importing .cli here would put
# hahnroot.cli in sys.modules before `python -m hahnroot.cli` runs it.
_CLI_NAMES = ("Command", "parse_polynomial", "poly_text", "run")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
