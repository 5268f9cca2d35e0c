"""Higher-level cohomology of finite commutative monoids.

The engine builds free resolutions of Z over the monoid algebra (small
models and bar constructions), dualizes them against coefficient
modules, and extracts H^n(M, r; A) with exact integer linear algebra.  It
also houses the symmetric-cochain comparison complex, the small cyclic
resolutions with their explicit contractions, and the coherence /
classification checks for symmetric monoidal abelian groupoids.

The package root carries the README's quick-start API and the public
error classes; everything else is imported from its module.
"""

from .monoid import MonoidError, make_cyclic
from .zlinalg import LatticeContainmentError
from .hmod import FGAbelianGroup, ModuleError, PiMismatchError, constant_module
from .bar import DGAError
from .cohomology import BruteForceCapError, TruncationError, cohomology_group
from .groupoid import GroupoidError
