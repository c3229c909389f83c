"""Reference check: sign consistency of a stabilizer group by brute force.

The engine ignores phases for order and membership, which is sound only if
no generated word equals a nontrivial phase times a word already reached
with another phase.  This closes the group under the generators, so it is
only for the small models the tests build.
"""

from quditlab.errors import InvalidModelError
from quditlab.pauli import identity, pauli_mul


def assert_sign_consistent(model, bound: int = 200000):
    """Brute-force check: no generated word equals a nontrivial phase times
    identity; returns the group order."""
    start = identity(model.modulus, model.n_sites)
    seen = {start.terms: start.phase_exp}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for g in model.generators:
            nxt = pauli_mul(cur, g.op)
            key = nxt.terms
            if key not in seen:
                if len(seen) > bound:
                    raise AssertionError("closure exceeds enumeration bound")
                seen[key] = nxt.phase_exp
                frontier.append(nxt)
            elif seen[key] != nxt.phase_exp:
                raise InvalidModelError(
                    "stabilizer group contains a nontrivial phase times a "
                    "repeated word (sign inconsistency)")
    return len(seen)
