"""Exact arithmetic for the generalized Pauli group on n qudits of dimension N.

A word is stored as its sorted nonzero support plus a global phase exponent:

    P = tau^phase * prod_site X_i^{x_i} Z_i^{z_i}

with X |k> = |k+1 mod N>, Z |k> = omega^k |k>, omega = exp(2*pi*i/N) and
tau = exp(i*pi/N) a primitive 2N-th root of unity (tau^2 = omega).  Even
phase exponents are powers of omega; odd exponents exist so that Hermitian
combinations such as Y = i X Z at N = 2 are representable.  The normal form
is X-before-Z on every site.  ``terms`` holds one ``(site, x, z)`` triple
per site where the word acts, sites ascending, exponents reduced mod N and
never both zero, so equality of words is plain tuple equality.

Every operation walks the supports only: products, powers, adjoints,
commutation exponents, serialization, ``weight`` and ``support`` cost
O(weight), not O(sites); no dense exponent vector is ever built.

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

from .errors import ParseError, ShapeError

__all__ = [
    "PauliOp",
    "identity",
    "single_site",
    "from_terms",
    "pauli_mul",
    "pauli_prod",
    "pauli_pow",
    "pauli_adjoint",
    "commutation_exponent",
    "sort_key",
    "to_text",
    "from_text",
]


@dataclass(frozen=True, slots=True)
class PauliOp:
    """An n-qudit Pauli word with exact phase tracking.

    ``sites`` is the register size n, ``terms`` the sorted nonzero support
    as ``(site, x, z)`` triples and ``phase_exp`` the exponent of
    tau = exp(i*pi/N), reduced mod 2N.  The constructor reduces exponents,
    drops zero sites and sorts; a site outside ``[0, sites)`` or repeated
    raises ShapeError (``from_terms`` multiplies repeated sites instead).
    """

    modulus: int
    sites: int
    terms: tuple = ()
    phase_exp: int = 0

    def __post_init__(self):
        terms = _normal_form(self.modulus, self.sites, self.terms)
        if any(a[0] == b[0] for a, b in zip(terms, terms[1:])):
            raise ShapeError("word repeats a site")
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "phase_exp", self.phase_exp % (2 * self.modulus))

    def is_identity(self, up_to_phase: bool = False) -> bool:
        return not self.terms and (up_to_phase or self.phase_exp == 0)

    def support(self) -> tuple:
        return tuple(s for s, _, _ in self.terms)

    def weight(self) -> int:
        return len(self.terms)

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return pauli_mul(self, other)


def _normal_form(modulus: int, sites: int, terms) -> list:
    """The (site, x, z) triples with exponents reduced mod N, zero sites
    dropped, sorted; ShapeError for a modulus below 2 or a nonzero site
    outside ``[0, sites)``.  Repeated sites are left to the caller."""
    if modulus < 2:
        raise ShapeError(f"modulus must be >= 2, got {modulus}")
    out = []
    for s, x, z in terms:
        x %= modulus
        z %= modulus
        if x or z:
            out.append((s, x, z))
    out.sort()
    if out and not (0 <= out[0][0] and out[-1][0] < sites):
        raise ShapeError(f"word acts outside its {sites}-site register")
    return out


_new = object.__new__
_set = object.__setattr__


def _word(modulus: int, sites: int, terms: tuple, phase: int) -> PauliOp:
    """A word from terms already in normal form (sorted, reduced, nonzero).

    Skips the constructor's normalization; every operation below produces
    its terms in normal form.
    """
    op = _new(PauliOp)
    _set(op, "modulus", modulus)
    _set(op, "sites", sites)
    _set(op, "terms", terms)
    _set(op, "phase_exp", phase % (2 * modulus))
    return op


def _check_shapes(p: PauliOp, q: PauliOp):
    if p.modulus != q.modulus:
        raise ShapeError(f"modulus mismatch: {p.modulus} vs {q.modulus}")
    if p.sites != q.sites:
        raise ShapeError(f"site-count mismatch: {p.sites} vs {q.sites}")


def identity(modulus: int, sites: int) -> PauliOp:
    return PauliOp(modulus, sites)


def single_site(modulus: int, sites: int, site: int, x: int = 0, z: int = 0,
                phase: int = 0) -> PauliOp:
    """The word tau^phase * X_site^x Z_site^z on an n-qudit register."""
    return PauliOp(modulus, sites, ((site, x, z),), phase)


def from_terms(modulus: int, sites: int, terms, phase: int = 0) -> PauliOp:
    """Build a word from (site, x, z) triples; repeated sites multiply left to right.

    Appending X^x Z^z on a site moves the word's Z^z' there past X^x, which
    costs omega^{z' x}, i.e. tau^{2 z' x}.  The merged sites take the
    constructor's normal form and checks (``_normal_form``) and the word is
    built from them directly, so it is normalized once.
    """
    acc = {}  # site -> (site, x, z) merged so far
    for t in terms:
        s = t[0]
        prev = acc.get(s)
        if prev is None:
            acc[s] = t
        else:
            phase += 2 * prev[2] * t[1]
            acc[s] = (s, prev[1] + t[1], prev[2] + t[2])
    return _word(modulus, sites, tuple(_normal_form(modulus, sites, acc.values())), phase)


def pauli_mul(p: PauliOp, q: PauliOp) -> PauliOp:
    """Group product in normal form (X left of Z per site).

    Moving every Z of ``p`` past every X of ``q`` on the same site costs
    omega^{z_p * x_q}, i.e. tau^{2 z_p x_q}.  The two supports are merged
    in one pass.
    """
    _check_shapes(p, q)
    n = p.modulus
    a, b = p.terms, q.terms
    phase = p.phase_exp + q.phase_exp
    if not a or not b:
        return _word(n, p.sites, a or b, phase)
    out = []
    cross = 0
    i, la = 0, len(a)
    for t in b:
        s = t[0]
        while i < la and a[i][0] < s:
            out.append(a[i])
            i += 1
        if i < la and a[i][0] == s:
            _, xa, za = a[i]
            i += 1
            cross += za * t[1]
            x = (xa + t[1]) % n
            z = (za + t[2]) % n
            if x or z:
                out.append((s, x, z))
        else:
            out.append(t)
    out += a[i:]
    return _word(n, p.sites, tuple(out), phase + 2 * cross)


def pauli_prod(modulus: int, sites: int, words) -> PauliOp:
    """The ordered product of ``words`` in one ``from_terms`` pass.

    Each word is tau^phase times commuting single-site factors, so the
    product appends every word's terms in order and adds the phases.
    """
    terms = []
    phase = 0
    for w in words:
        if w.modulus != modulus or w.sites != sites:
            raise ShapeError("word register does not match the product's")
        terms += w.terms
        phase += w.phase_exp
    return from_terms(modulus, sites, terms, phase)


def pauli_pow(p: PauliOp, k: int) -> PauliOp:
    """p^k in one pass over the support, for any integer k.

    Sites commute, and per site (X^x Z^z)^k = omega^{xz k(k-1)/2} X^{kx} Z^{kz},
    so the phase is tau^{k phase + k(k-1) sum xz}.  The identity holds for
    negative k too: k = -1 gives the adjoint.
    """
    n = p.modulus
    cross = 0
    terms = []
    for s, x, z in p.terms:
        cross += x * z
        kx, kz = k * x % n, k * z % n
        if kx or kz:
            terms.append((s, kx, kz))
    return _word(n, p.sites, tuple(terms), k * p.phase_exp + k * (k - 1) * cross)


def pauli_adjoint(p: PauliOp) -> PauliOp:
    """Hermitian adjoint, p^-1 for a unitary Pauli word.

    (X^x Z^z)^dagger = Z^-z X^-x = omega^{xz} X^-x Z^-z.
    """
    return pauli_pow(p, -1)


def commutation_exponent(p: PauliOp, q: PauliOp) -> int:
    """Return k in Z_N with p*q = omega^k q*p.

    k is the symplectic form sum_site (z_p x_q - x_p z_q) mod N over the
    shared sites; X and Z on the same site give k(Z, X) = +1, matching
    Z X = omega X Z.
    """
    _check_shapes(p, q)
    b = q.terms
    acc = 0
    j, lb = 0, len(b)
    for s, x, z in p.terms:
        while j < lb and b[j][0] < s:
            j += 1
        if j == lb:
            break
        if b[j][0] == s:
            acc += z * b[j][1] - x * b[j][2]
    return acc % p.modulus


def sort_key(p: PauliOp) -> tuple:
    """A key that orders words of one register as their dense
    (X exponents, Z exponents) tuples compare, in O(weight).

    A dense vector is smaller when its first nonzero site comes later, so
    each block lists ``(-site, exponent)`` for its nonzero sites.
    """
    t = p.terms
    return (tuple((-s, x) for s, x, _ in t if x), tuple((-s, z) for s, _, z in t if z))


def to_text(p: PauliOp) -> str:
    """Serialize as ``phase_exp|site:xExp,zExp;...`` (stable golden-file format)."""
    return f"{p.phase_exp}|" + ";".join(f"{s}:{x},{z}" for s, x, z in p.terms)


def from_text(text: str, modulus: int, sites: int) -> PauliOp:
    """Parse the ``to_text`` format for a register of known size.

    Raises ParseError on a malformed chunk, a non-integer phase or exponent,
    or a site outside ``[0, sites)`` or repeated.
    """
    head, sep, body = text.partition("|")
    terms = []
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
            terms.append((site, int(x_text), int(z_text)))
    except ValueError as exc:
        raise ParseError(f"Pauli word {text!r}: {exc}") from None
    return PauliOp(modulus, sites, tuple(terms), phase)
