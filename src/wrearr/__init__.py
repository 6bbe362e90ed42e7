"""Weighted rearrangement calculus for desk-scale operator algebras.

Singular value functions, weighted trace functionals, weighted decreasing
rearrangements and Orlicz/Lp norms computed by two independent routes, with
the equalities between the routes wired in as checkable properties.

A name is public when its module's ``__all__`` lists it; the package
re-exports those of the five modules below and declares no name of its own.
"""

from . import algebra, errors, norms, stepfn, weighted
from .algebra import *
from .errors import *
from .norms import *
from .stepfn import *
from .weighted import *

__version__ = "0.1.0"

__all__ = [name for m in (algebra, errors, norms, stepfn, weighted) for name in m.__all__]
