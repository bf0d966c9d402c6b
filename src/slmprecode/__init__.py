"""Transmit-energy analysis of channel-inversion precoding with selective mapping.

The package computes the closed-form minimum average transmit energy of a
square-channel inverting broadcast precoder, the large-candidate-count
limits of minimum-energy selection (selective mapping), and simulates
three practical realizations: random candidate sets, vector perturbation,
and sign-bit trellis / nested-lattice shaping.
"""

from . import errors, harness, linalg, precoders, regions, shaping, theory

__version__ = "0.1.0"
