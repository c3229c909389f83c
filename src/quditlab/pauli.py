"""Exact arithmetic for the generalized Pauli group on n qudits of dimension N.

A word is stored as exponent vectors over Z_N plus a global phase exponent:

    P = tau^phase * prod_site X_i^{x_i} Z_i^{z_i}

with X |k> = |k+1 mod N>, Z |k> = omega^k |k>, omega = exp(2*pi*i/N) and
tau = exp(i*pi/N) a primitive 2N-th root of unity (tau^2 = omega).  Even
phase exponents are powers of omega; odd exponents exist so that Hermitian
combinations such as Y = i X Z at N = 2 are representable.  The normal form
is X-before-Z on every site, so equality of words is plain tuple equality.

Key relations (all exact, no floats):

    Z X = omega X Z          per site
    X^N = Z^N = 1            with no phase
    p * q = omega^k q * p     where k = commutation_exponent(p, q)

The text serialization used by golden files is
``phase_exp|site:xExp,zExp;...`` with sites ascending and zero sites omitted;
the identity on any register is ``"0|"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import or_

from .errors import ParseError, ShapeError

__all__ = [
    "PauliOp",
    "identity",
    "single_site",
    "from_terms",
    "pauli_mul",
    "pauli_pow",
    "pauli_adjoint",
    "commutation_exponent",
    "to_text",
    "from_text",
]


@dataclass(frozen=True)
class PauliOp:
    """An n-qudit Pauli word with exact phase tracking.

    ``phase_exp`` is the exponent of tau = exp(i*pi/N), reduced mod 2N.
    """

    modulus: int
    x_exp: tuple
    z_exp: tuple
    phase_exp: int = 0

    def __post_init__(self):
        n = self.modulus
        if n < 2:
            raise ShapeError(f"modulus must be >= 2, got {n}")
        object.__setattr__(self, "x_exp", tuple(e % n for e in self.x_exp))
        object.__setattr__(self, "z_exp", tuple(e % n for e in self.z_exp))
        object.__setattr__(self, "phase_exp", self.phase_exp % (2 * n))
        if len(self.x_exp) != len(self.z_exp):
            raise ShapeError("x_exp and z_exp lengths differ")

    @property
    def sites(self) -> int:
        return len(self.x_exp)

    def is_identity(self, up_to_phase: bool = False) -> bool:
        flat = not any(self.x_exp) and not any(self.z_exp)
        return flat if up_to_phase else (flat and self.phase_exp == 0)

    def support(self) -> tuple:
        return tuple(compress(range(self.sites), map(or_, self.x_exp, self.z_exp)))

    def weight(self) -> int:
        return len(self.support())

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return pauli_mul(self, other)

    def __pow__(self, k: int) -> "PauliOp":
        return pauli_pow(self, k)

    def adjoint(self) -> "PauliOp":
        return pauli_adjoint(self)

    def order(self) -> int:
        """Smallest k >= 1 with self^k exactly the identity (phase included)."""
        acc = self
        for k in range(1, 2 * self.modulus ** 2 + 1):
            if acc.is_identity():
                return k
            acc = pauli_mul(acc, self)
        raise AssertionError("order exceeded bound")  # unreachable for valid words

    def symplectic_order(self) -> int:
        """Order of the word with phases ignored."""
        n = self.modulus
        k = 1
        for e in self.x_exp + self.z_exp:
            if e:
                k = _lcm(k, n // _gcd(e, n))
        return k


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _lcm(a, b):
    return a * b // _gcd(a, b)


def _check_shapes(p: PauliOp, q: PauliOp):
    if p.modulus != q.modulus:
        raise ShapeError(f"modulus mismatch: {p.modulus} vs {q.modulus}")
    if p.sites != q.sites:
        raise ShapeError(f"site-count mismatch: {p.sites} vs {q.sites}")


def identity(modulus: int, sites: int) -> PauliOp:
    return PauliOp(modulus, (0,) * sites, (0,) * sites, 0)


def single_site(modulus: int, sites: int, site: int, x: int = 0, z: int = 0,
                phase: int = 0) -> PauliOp:
    """The word tau^phase * X_site^x Z_site^z on an n-qudit register."""
    xs = [0] * sites
    zs = [0] * sites
    xs[site] = x
    zs[site] = z
    return PauliOp(modulus, tuple(xs), tuple(zs), phase)


def from_terms(modulus: int, sites: int, terms, phase: int = 0) -> PauliOp:
    """Build a word from (site, x, z) triples; repeated sites multiply left to right.

    Appending X^x Z^z on a site moves the word's Z^z' there past X^x, which
    costs omega^{z' x}, i.e. tau^{2 z' x}.
    """
    xs = [0] * sites
    zs = [0] * sites
    for site, x, z in terms:
        phase += 2 * zs[site] * x
        xs[site] += x
        zs[site] += z
    return PauliOp(modulus, tuple(xs), tuple(zs), phase)


def pauli_mul(p: PauliOp, q: PauliOp) -> PauliOp:
    """Group product in normal form (X left of Z per site).

    Moving every Z of ``p`` past every X of ``q`` on the same site costs
    omega^{z_p * x_q}, i.e. tau^{2 z_p x_q}.
    """
    _check_shapes(p, q)
    n = p.modulus
    cross = sum(zp * xq for zp, xq in zip(p.z_exp, q.x_exp))
    return PauliOp(
        n,
        tuple(a + b for a, b in zip(p.x_exp, q.x_exp)),
        tuple(a + b for a, b in zip(p.z_exp, q.z_exp)),
        p.phase_exp + q.phase_exp + 2 * cross,
    )


def pauli_pow(p: PauliOp, k: int) -> PauliOp:
    """p^k by square-and-multiply; negative k uses the adjoint."""
    if k < 0:
        return pauli_pow(pauli_adjoint(p), -k)
    acc = identity(p.modulus, p.sites)
    base = p
    while k:
        if k & 1:
            acc = pauli_mul(acc, base)
        base = pauli_mul(base, base)
        k >>= 1
    return acc


def pauli_adjoint(p: PauliOp) -> PauliOp:
    """Hermitian adjoint: inverts exponents and conjugates the phase.

    (X^x Z^z)^dagger = Z^-z X^-x = omega^{xz} X^-x Z^-z.
    """
    n = p.modulus
    cross = sum(x * z for x, z in zip(p.x_exp, p.z_exp))
    return PauliOp(
        n,
        tuple(-e for e in p.x_exp),
        tuple(-e for e in p.z_exp),
        -p.phase_exp + 2 * cross,
    )


def commutation_exponent(p: PauliOp, q: PauliOp) -> int:
    """Return k in Z_N with p*q = omega^k q*p.

    k is the symplectic form sum_site (z_p x_q - x_p z_q) mod N; X and Z on
    the same site give k(Z, X) = +1, matching Z X = omega X Z.
    """
    _check_shapes(p, q)
    n = p.modulus
    acc = 0
    for xp, zp, xq, zq in zip(p.x_exp, p.z_exp, q.x_exp, q.z_exp):
        acc += zp * xq - xp * zq
    return acc % n


def to_text(p: PauliOp) -> str:
    """Serialize as ``phase_exp|site:xExp,zExp;...`` (stable golden-file format)."""
    parts = [f"{i}:{p.x_exp[i]},{p.z_exp[i]}" for i in p.support()]
    return f"{p.phase_exp}|" + ";".join(parts)


def from_text(text: str, modulus: int, sites: int) -> PauliOp:
    """Parse the ``to_text`` format for a register of known size.

    Raises ParseError on a malformed chunk, a non-integer phase or exponent,
    or a site outside ``[0, sites)`` or repeated.
    """
    head, sep, body = text.partition("|")
    xs = [0] * sites
    zs = [0] * sites
    seen = set()
    try:
        if not sep:
            raise ValueError("missing '|' after the phase")
        phase = int(head)
        for chunk in body.split(";") if body else ():
            site_text, colon, exps = chunk.partition(":")
            x_text, comma, z_text = exps.partition(",")
            if not (colon and comma):
                raise ValueError(f"chunk {chunk!r} is not site:x,z")
            site = int(site_text)
            if not 0 <= site < sites:
                raise ValueError(f"site {site} is outside [0, {sites})")
            if site in seen:
                raise ValueError(f"site {site} is repeated")
            seen.add(site)
            xs[site] = int(x_text)
            zs[site] = int(z_text)
    except ValueError as exc:
        raise ParseError(f"Pauli word {text!r}: {exc}") from None
    return PauliOp(modulus, tuple(xs), tuple(zs), phase)
