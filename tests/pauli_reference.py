"""Reference oracle: dense Pauli-word arithmetic over all sites.

An independent, deliberately plain path for cross-checking the sparse
``quditlab.pauli`` core.  A word is a pair of exponent tuples over every
site plus a phase exponent of tau = exp(i*pi/N), with the same normal form
(X before Z per site) and the same phase rules; every operation walks all
sites, so it is only for the small registers the tests draw.
"""

import math
from dataclasses import dataclass

from quditlab.pauli import PauliOp


@dataclass(frozen=True)
class DenseWord:
    modulus: int
    x_exp: tuple
    z_exp: tuple
    phase_exp: int = 0

    def __post_init__(self):
        n = self.modulus
        object.__setattr__(self, "x_exp", tuple(e % n for e in self.x_exp))
        object.__setattr__(self, "z_exp", tuple(e % n for e in self.z_exp))
        object.__setattr__(self, "phase_exp", self.phase_exp % (2 * n))
        assert len(self.x_exp) == len(self.z_exp)

    @property
    def sites(self) -> int:
        return len(self.x_exp)


def x_exp(op: PauliOp) -> tuple:
    """The X exponents of a sparse word over every site."""
    xs = [0] * op.sites
    for s, x, _ in op.terms:
        xs[s] = x
    return tuple(xs)


def z_exp(op: PauliOp) -> tuple:
    """The Z exponents of a sparse word over every site."""
    zs = [0] * op.sites
    for s, _, z in op.terms:
        zs[s] = z
    return tuple(zs)


def dense(op: PauliOp) -> DenseWord:
    """The dense form of a sparse word."""
    return DenseWord(op.modulus, x_exp(op), z_exp(op), op.phase_exp)


def order(op: PauliOp) -> int:
    """Smallest k >= 1 with op^k exactly the identity (phase included), by
    repeated multiplication."""
    acc = op
    for k in range(1, 2 * op.modulus ** 2 + 1):
        if acc.is_identity():
            return k
        acc = acc * op
    raise AssertionError("order exceeded bound")  # unreachable for valid words


def symplectic_order(op: PauliOp) -> int:
    """Order of the word with phases ignored."""
    n = op.modulus
    k = 1
    for _, x, z in op.terms:
        for e in (x, z):
            if e:
                k = math.lcm(k, n // math.gcd(e, n))
    return k


def sparse(word: DenseWord) -> PauliOp:
    """A sparse word with the same exponents and phase."""
    terms = [(s, x, z) for s, (x, z) in enumerate(zip(word.x_exp, word.z_exp)) if x or z]
    return PauliOp(word.modulus, word.sites, tuple(terms), word.phase_exp)


def from_dense(modulus, x_exp, z_exp, phase_exp=0) -> PauliOp:
    """A sparse word from dense exponent vectors."""
    return sparse(DenseWord(modulus, tuple(x_exp), tuple(z_exp), phase_exp))


def from_terms(modulus, sites, terms, phase=0) -> DenseWord:
    """(site, x, z) triples multiplied left to right: appending X^x Z^z on a
    site moves the word's Z^z' there past X^x, which costs tau^{2 z' x}."""
    xs = [0] * sites
    zs = [0] * sites
    for site, x, z in terms:
        phase += 2 * zs[site] * x
        xs[site] += x
        zs[site] += z
    return DenseWord(modulus, tuple(xs), tuple(zs), phase)


def pauli_mul(p: DenseWord, q: DenseWord) -> DenseWord:
    cross = sum(zp * xq for zp, xq in zip(p.z_exp, q.x_exp))
    return DenseWord(p.modulus,
                     tuple(a + b for a, b in zip(p.x_exp, q.x_exp)),
                     tuple(a + b for a, b in zip(p.z_exp, q.z_exp)),
                     p.phase_exp + q.phase_exp + 2 * cross)


def identity(modulus, sites) -> DenseWord:
    return DenseWord(modulus, (0,) * sites, (0,) * sites)


def pauli_adjoint(p: DenseWord) -> DenseWord:
    cross = sum(x * z for x, z in zip(p.x_exp, p.z_exp))
    return DenseWord(p.modulus, tuple(-e for e in p.x_exp), tuple(-e for e in p.z_exp),
                     -p.phase_exp + 2 * cross)


def pauli_pow(p: DenseWord, k: int) -> DenseWord:
    """p^k by repeated multiplication; negative k uses the adjoint."""
    if k < 0:
        return pauli_pow(pauli_adjoint(p), -k)
    acc = identity(p.modulus, p.sites)
    for _ in range(k):
        acc = pauli_mul(acc, p)
    return acc


def commutation_exponent(p: DenseWord, q: DenseWord) -> int:
    acc = 0
    for xp, zp, xq, zq in zip(p.x_exp, p.z_exp, q.x_exp, q.z_exp):
        acc += zp * xq - xp * zq
    return acc % p.modulus


def to_text(p: DenseWord) -> str:
    parts = [f"{i}:{x},{z}" for i, (x, z) in enumerate(zip(p.x_exp, p.z_exp)) if x or z]
    return f"{p.phase_exp}|" + ";".join(parts)


def sort_key(p: DenseWord):
    """The decoders' canonical tie-break order on words."""
    return (p.x_exp, p.z_exp)
