"""Entropic transport between node groups of latent-space random graphs.

The package estimates the transport cost between two groups of graph nodes
three ways: shortest-path geodesics on a connectivity graph, spectral
thresholding of the adjacency matrix, and the raw cross-group adjacency
block solved inside a box of dual potentials.  Stability ceilings tie every
estimate's transport error to the measurable cost or kernel perturbation.
Importing it pins numpy's and scipy's OpenBLAS to one thread (Linux).
"""

from . import _blas  # noqa: F401  (first: every later product runs on one BLAS thread)
