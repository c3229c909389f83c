"""quditlab: a qudit Pauli-stabilizer laboratory.

Exact mod-N Pauli arithmetic, stabilizer algebra by sparse gcd elimination,
toric and vertex-qubit lattice models, twist/dislocation/condensate-patch
surgeries, a doubled-semion model with string operators and spin
extraction, decoders with a brute-force oracle and a seeded Monte Carlo
harness, an exact anyon-theory catalog, and abelian anyon condensation.
"""

from . import (catalog, condense, decoders, defects, dsemion, engine, errors,
               lattice, pauli)

__all__ = ["pauli", "engine", "lattice", "dsemion", "defects", "decoders",
           "catalog", "condense", "errors"]

__version__ = "0.1.0"
