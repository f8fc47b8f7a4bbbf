"""
Exact combinatorics of set partitions.  Import names from the submodules;
the package re-exports none of them, and after ``import setpart`` each
submodule is an attribute (``setpart.core``):

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

from . import bijections, core, motzkin, qseries, stats, verify  # noqa: F401

__version__ = "0.1.0"
