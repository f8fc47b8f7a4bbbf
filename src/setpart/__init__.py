"""
Exact combinatorics of set partitions.  Import names from the submodules;
the package re-exports none of them.  Each submodule is an attribute of
the package (``setpart.core``), loaded on first access, so ``import
setpart`` loads none of them:

- ``setpart.core``: canonical and ordered partitions, parsing, element
  classification, trace profiles, enumeration.
- ``setpart.stats``: the coordinate counts and every named statistic.
- ``setpart.bijections``: the involution ``phi`` with its certificate,
  and the block-exchange maps ``phi_i``.
- ``setpart.motzkin``: labeled Motzkin path encodings.
- ``setpart.qseries``: exact polynomials in q and the q-Stirling numbers.
- ``setpart.verify``: the exhaustive verification suites and the mak DP.
- ``setpart.cli``: the command-line front end.
"""

__version__ = "0.1.0"
_SUBMODULES = ("bijections", "cli", "core", "motzkin", "qseries", "stats", "verify")


def __getattr__(name: str):
    # importing a submodule binds it on the package, so each name comes here once
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
