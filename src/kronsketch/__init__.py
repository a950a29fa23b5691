"""Sketched Kronecker products under dynamic factor updates.

A balanced tree of sketches maintains an m x d stand-in for the Kronecker
product of q factor matrices; updating one factor touches only a
leaf-to-root path. On top of the tree sit approximate solvers for tensor
product regression, penalized (spline) regression, and low-rank
approximation, together with exact oracles that work from the factors
and the label's nonzeros alone, and a leverage-score sampling baseline.
The bench module gives all of it a command line.

The package namespace re-exports what the README quick start imports
from it; the rest lives in the submodules (``linalg``, ``sketches``, ``tree``,
``solvers``, ``oracle``, ``bench``).
"""

from .oracle import exact_kron_regression
from .sketches import BaseFamily, TensorFamily, choose_m
from .solvers import regression_query
from .tree import TensorTree, TreeConfig

__version__ = "0.1.0"

__all__ = [
    "BaseFamily",
    "TensorFamily",
    "TensorTree",
    "TreeConfig",
    "choose_m",
    "exact_kron_regression",
    "regression_query",
]
