"""Even-degree regular factors in odd-regular multigraphs.

Core pieces: a multigraph type with loops and parallel edges, cut-edge and
connectivity routines, an ℓ-factor engine (exhaustive criterion oracle and
a matching-based constructive solver), generators for the extremal and
sharpness graph families, and verifiers that re-check the theorems on
concrete instances.  Each name is imported from the module that defines it.
"""

from . import connectivity, factor, generators, io, matching, multigraph, verifier

__version__ = "0.1.0"
