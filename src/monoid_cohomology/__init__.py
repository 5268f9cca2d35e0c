"""Higher-level cohomology of finite commutative monoids.

The engine builds the iterated bar construction on the monoid algebra
explicitly, dualizes it against coefficient modules, and extracts the
cohomology groups H^n(M, r; A) with exact integer linear algebra.  It
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
