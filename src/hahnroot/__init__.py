"""Exact root expansions over F_p(t): Hahn-series prefixes, additive
companions, intersection points, and ramification/residue bounds."""

__version__ = "0.1.0"

# Every exported name loads its home module on first access (PEP 562), so
# importing the package loads no submodule and a CLI process loads only the
# modules its verb runs.  Importing .cli here would also put hahnroot.cli in
# sys.modules before `python -m hahnroot.cli` runs it.
_HOMES = {
    "ffield": ("FF", "FieldCtx", "Embedding", "field_ctx", "poly_roots"),
    "ratfun": ("RatFun",),
    "hahn": ("HahnSeries", "expands_at"),
    "hasse": ("Poly", "NewtonLine", "taylor_at", "evaluate", "is_additive"),
    "ore": ("AdditivePolynomial", "addpol"),
    "envelope": ("Breakpoint", "companion_points", "intersection_points", "maxram",
                 "maxexp", "maxexp_base", "paper_base", "order_type_bound"),
    "expand": ("AccumulationReport", "BranchNode", "ExpansionTree",
               "accumulation_analysis", "expand_roots"),
    "cli": ("Command", "parse_polynomial", "poly_text", "run"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
