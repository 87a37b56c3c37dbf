"""Distinct-subset-sum laboratory.

Library and CLI for the high-dimensional distinct-subset-sums problem:
exact combinatorial identities, p-norm ball geometry with lattice-shell
cross-checks, statistical lower bounds on the minimal component bound M,
an exact subset-sum verifier, an exhaustive minimal-M searcher at desk
scale, and exact/Monte Carlo moment evaluation for concrete sequences.
"""

# Each layer's __all__ is its public interface, republished here as is.
from .bounds import *
from .combinatorics import *
from .errors import BudgetExceededError
from .moments import *
from .pnorm import *
from .sequences import *

__version__ = "0.1.0"
