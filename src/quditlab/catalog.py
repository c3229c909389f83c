"""Data-level anyon-theory catalog: fusion, twists, dimensions, modular data.

All quantities are exact: topological spins are Fractions of a full turn
(theta = exp(2*pi*i*turn), so 1/16 distinguishes the Ising spin from every
power of i), quantum dimensions are numbers (p + q*sqrt(2))/d held as three
integers in lowest terms (``QDim``; its coefficients read as Fractions), and
S-matrix entries are (magnitude, turn) pairs.  No floats anywhere.

Each derived quantity is computed once: a theory works out its duals, its
abelian flag and its twists over one common denominator (from which
monodromies are formed on integers) on first use and keeps them, and
``modular_data`` divides once per distinct pair of dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import QuditLabError, UnsupportedModelError

__all__ = [
    "QDim",
    "AnyonTheory",
    "builtin_theory",
    "monodromy",
    "modular_data",
    "s_unitary",
    "is_isomorphic",
    "product_theory",
    "turn_to_str",
]


class QDim:
    """Exact number a + b*sqrt(2); enough for every theory in the catalog.

    Held as integers (p + q*sqrt(2))/d in lowest terms (d > 0, gcd(p, q, d)
    = 1), so arithmetic builds no Fraction; ``a`` and ``b`` read the two
    coefficients as Fractions.  ``QDim(a, b)`` takes ints or Fractions.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self._p, self._q, self._d = a, b, 1
            return
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        # each coefficient is in lowest terms, so gcd(p, q, d) is already 1
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __add__(self, other):
        if other.__class__ is not QDim:
            other = _as_qdim(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._p + other._p, self._q + other._q, d1)
        return _reduced(self._p * d2 + other._p * d1, self._q * d2 + other._q * d1,
                        d1 * d2)

    def __sub__(self, other):
        return self + -_as_qdim(other)

    def __mul__(self, other):
        if other.__class__ is not QDim:
            other = _as_qdim(other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        return _reduced(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self._d * other._d)

    def __neg__(self):
        return _reduced(-self._p, -self._q, self._d)

    def __truediv__(self, other):
        # (p1 + q1 r)/d1 * d2/(p2 + q2 r) = (p1 + q1 r)(p2 - q2 r) d2 / (d1 (p2^2 - 2 q2^2))
        if other.__class__ is not QDim:
            other = _as_qdim(other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        norm = p2 * p2 - 2 * q2 * q2
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return _reduced((p1 * p2 - 2 * q1 * q2) * other._d, (q1 * p2 - p1 * q2) * other._d,
                        self._d * norm)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self):
        return hash((self._p, self._q, self._d))

    def __repr__(self):
        return f"QDim(a={self.a!r}, b={self.b!r})"

    def is_zero(self):
        return self._p == 0 and self._q == 0

    def __str__(self):
        a, b = _ratio_str(self._p, self._d), _ratio_str(self._q, self._d)
        if self._q == 0:
            return a
        if self._p == 0:
            return "2^{1/2}" if b == "1" else f"{b}*2^{{1/2}}"
        return f"{a}+{b}*2^{{1/2}}"


def _reduced(p, q, d) -> QDim:
    """(p + q*sqrt(2))/d in lowest terms with d > 0; d must be nonzero."""
    g = math.gcd(p, q, d)
    if d < 0:
        g = -g
    if g != 1:
        p, q, d = p // g, q // g, d // g
    out = object.__new__(QDim)
    out._p, out._q, out._d = p, q, d
    return out


def _ratio_str(n, d) -> str:
    """n/d as ``str(Fraction(n, d))`` prints it."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _as_qdim(x) -> QDim:
    if isinstance(x, QDim):
        return x
    return QDim(x)


ONE = QDim(1)


def _sqrt_qdim(n: int) -> QDim:
    """Exact sqrt(n) when n = a^2 or n = 2 b^2 (all catalogued cases)."""
    r = math.isqrt(n)
    if r * r == n:
        return QDim(r)
    r = math.isqrt(n // 2)
    if n % 2 == 0 and 2 * r * r == n:
        return QDim(0, r)
    raise QuditLabError(f"sqrt({n}) is not representable in Q(sqrt 2)")


@dataclass(frozen=True)
class AnyonTheory:
    """Label set with fusion table, twists, dimensions and optional S/T data.

    ``fusion[(a, b)]`` maps outcome labels to multiplicities; ``twist`` holds
    Fractions of a full turn; ``s_matrix`` (when stored or synthesized) holds
    (QDim magnitude, Fraction turn) pairs.
    """

    name: str
    labels: tuple
    fusion: dict
    twist: dict
    dim: dict
    total_dim: QDim
    s_matrix: tuple = None

    @property
    def unit(self) -> str:
        return self.labels[0]

    def fuse(self, a: str, b: str) -> dict:
        self._check(a)
        self._check(b)
        return dict(self.fusion[(a, b)])

    def dual(self, a: str) -> str:
        self._check(a)
        if a not in self._duals:
            raise QuditLabError(f"label {a} has no dual")
        return self._duals[a]

    def is_abelian(self) -> bool:
        return self._abelian

    # Derived tables, each worked out on first use and kept: a theory's
    # fields are never changed after it is built.

    @cached_property
    def _label_set(self) -> frozenset:
        return frozenset(self.labels)

    @cached_property
    def _duals(self) -> dict:
        """label -> its first dual in label order, for labels that have one."""
        duals = {}
        for a in self.labels:
            for b in self.labels:
                if self.fusion[(a, b)].get(self.unit, 0) == 1:
                    duals[a] = b
                    break
        return duals

    @cached_property
    def _abelian(self) -> bool:
        return all(sum(out.values()) == 1 for out in self.fusion.values())

    @cached_property
    def _spins(self):
        """(den, numerators, turns): each twist as numerators[a]/den over one
        common denominator, and a memo of the Fraction turns k/den."""
        den = math.lcm(*(t.denominator for t in self.twist.values()))
        numerators = {a: t.numerator * (den // t.denominator) for a, t in self.twist.items()}
        return den, numerators, {}

    def _check(self, a):
        if a not in self._label_set:
            raise QuditLabError(f"unknown label {a!r} in theory {self.name}")


def _pointed(name, moduli, labels, twist_of) -> AnyonTheory:
    """Pointed theory of the abelian group Z_m1 x Z_m2 x ... of ``moduli``:
    ``labels`` names its elements in ``itertools.product`` order, and
    ``twist_of`` gives the twist of an element in turns."""
    # sums[i][j] = position of element i + element j, built one factor at a
    # time: appending Z_m as the fastest coordinate sends (i, x) to i*m + x
    sums = [[0]]
    for m in moduli:
        cyclic = [[(x + y) % m for y in range(m)] for x in range(m)]
        sums = [[s * m + c for s in row for c in add_x] for row in sums for add_x in cyclic]
    fusion = {(la, lb): {labels[k]: 1}
              for la, row in zip(labels, sums) for lb, k in zip(labels, row)}
    elems = itertools.product(*map(range, moduli))
    twist = {a: Fraction(twist_of(e)) % 1 for a, e in zip(labels, elems)}
    return AnyonTheory(name, tuple(labels), fusion, twist, dict.fromkeys(labels, ONE),
                       _sqrt_qdim(len(labels)))


def _zn_label(p, q):
    if p == 0 and q == 0:
        return "1"
    out = ""
    if p:
        out += "e" + (str(p) if p > 1 else "")
    if q:
        out += "m" + (str(q) if q > 1 else "")
    return out


def builtin_theory(name: str, n: int = None) -> AnyonTheory:
    """The catalogued theories: toric, z_n(N), semion, doubled_semion, ising,
    ising_like_twist."""
    if name == "toric":
        return _pointed("toric", (2, 2), ("1", "e", "m", "em"),
                        lambda e: Fraction(e[0] * e[1], 2))
    if name == "z_n":
        if n is None or n < 2:
            raise UnsupportedModelError("z_n needs a modulus N >= 2")
        # an element is (flux q, charge p), so product order is display order
        return _pointed(f"z_{n}", (n, n),
                        [_zn_label(p, q) for q, p in itertools.product(range(n), repeat=2)],
                        lambda e: Fraction(e[0] * e[1], n))
    if name == "semion":
        return _pointed("semion", (2,), ("1", "s"), lambda e: Fraction(e[0], 4))
    if name == "doubled_semion":
        return _pointed("doubled_semion", (2, 2), ("1", "s", "sbar", "ssbar"),
                        lambda e: Fraction(e[1] ** 2 - e[0] ** 2, 4))
    if name == "ising":
        labels = ("1", "sigma", "psi")
        f = {}
        table = {
            ("1", "1"): {"1": 1}, ("1", "sigma"): {"sigma": 1}, ("1", "psi"): {"psi": 1},
            ("sigma", "sigma"): {"1": 1, "psi": 1}, ("sigma", "psi"): {"sigma": 1},
            ("psi", "psi"): {"1": 1},
        }
        for (a, b), out in table.items():
            f[(a, b)] = out
            f[(b, a)] = out
        twist = {"1": Fraction(0), "sigma": Fraction(1, 16), "psi": Fraction(1, 2)}
        root2 = QDim(0, 1)
        dim = {"1": ONE, "sigma": root2, "psi": ONE}
        half = Fraction(1, 2)
        s = (
            ((QDim(half), Fraction(0)), (root2 * QDim(half), Fraction(0)), (QDim(half), Fraction(0))),
            ((root2 * QDim(half), Fraction(0)), (QDim(0), Fraction(0)), (root2 * QDim(half), Fraction(1, 2))),
            ((QDim(half), Fraction(0)), (root2 * QDim(half), Fraction(1, 2)), (QDim(half), Fraction(0))),
        )
        return AnyonTheory("ising", labels, f, twist, dim, QDim(2), s)
    if name == "ising_like_twist":
        labels = ("1", "e", "m", "eps", "sig+", "sig-")
        abelian = _pointed("", (2, 2), labels[:4], lambda e: Fraction(e[0] * e[1], 2))
        f = dict(abelian.fusion)
        for s in ("sig+", "sig-"):
            other = "sig-" if s == "sig+" else "sig+"
            f[(s, s)] = {"1": 1, "eps": 1}
            f[(s, other)] = {"e": 1, "m": 1}
            f[(other, s)] = {"e": 1, "m": 1}
            for a, flip in (("1", False), ("eps", False), ("e", True), ("m", True)):
                out = {other: 1} if flip else {s: 1}
                f[(s, a)] = dict(out)
                f[(a, s)] = dict(out)
        twist = {**abelian.twist, "sig+": Fraction(1, 4), "sig-": Fraction(3, 4)}
        root2 = QDim(0, 1)
        dim = {**abelian.dim, "sig+": root2, "sig-": root2}
        return AnyonTheory("ising_like_twist", labels, f, twist, dim, QDim(0, 2))
    raise UnsupportedModelError(f"unknown builtin theory {name!r}")


def monodromy(theory: AnyonTheory, a: str, b: str) -> Fraction:
    """Full braiding phase theta(ab)/theta(a)theta(b), abelian theories only."""
    out = theory.fuse(a, b)
    if len(out) != 1 or sum(out.values()) != 1:
        raise UnsupportedModelError(
            f"monodromy formula needs single-channel fusion; {a} x {b} is not")
    (c,) = out
    den, num, turns = theory._spins
    k = (num[c] - num[a] - num[b]) % den
    if k not in turns:
        turns[k] = Fraction(k, den)
    return turns[k]


def modular_data(theory: AnyonTheory):
    """(S, T): T as the tuple of twist turns, S as (magnitude, turn) entries.

    For abelian theories S_ab = monodromy(a,b) d_a d_b / D, with one
    division per distinct (d_a, d_b), so a pointed theory takes one;
    non-abelian theories must carry stored S data.
    """
    t_diag = tuple(theory.twist[a] for a in theory.labels)
    if theory.s_matrix is not None:
        return theory.s_matrix, t_diag
    if not theory.is_abelian():
        raise UnsupportedModelError(
            f"no stored S matrix and {theory.name} is not abelian")
    s, magnitudes = [], {}
    for a in theory.labels:
        row = []
        for b in theory.labels:
            dims = (theory.dim[a], theory.dim[b])
            if dims not in magnitudes:
                magnitudes[dims] = dims[0] * dims[1] / theory.total_dim
            row.append((magnitudes[dims], monodromy(theory, a, b)))
        s.append(tuple(row))
    return tuple(s), t_diag


def _signed_real(entry):
    mag, turn = entry
    if turn == 0:
        return mag
    if turn == Fraction(1, 2):
        return -mag
    raise UnsupportedModelError("entry is not real")


def s_unitary(theory: AnyonTheory) -> bool:
    """Exact S S^dagger = identity check for theories with real S entries."""
    s, _ = modular_data(theory)
    k = len(theory.labels)
    real = [[_signed_real(s[i][j]) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            acc = QDim()
            for l in range(k):
                acc = acc + real[i][l] * real[j][l]
            if acc != (ONE if i == j else QDim()):
                return False
    return True


def product_theory(t1: AnyonTheory, t2: AnyonTheory) -> AnyonTheory:
    """Deligne product: labels are pairs, data multiplies componentwise."""
    labels = tuple(f"({a},{b})" for a in t1.labels for b in t2.labels)
    fusion = {}
    for a1 in t1.labels:
        for b1 in t2.labels:
            for a2 in t1.labels:
                for b2 in t2.labels:
                    out = {}
                    for c1, m1 in t1.fusion[(a1, a2)].items():
                        for c2, m2 in t2.fusion[(b1, b2)].items():
                            out[f"({c1},{c2})"] = m1 * m2
                    fusion[(f"({a1},{b1})", f"({a2},{b2})")] = out
    twist = {f"({a},{b})": (t1.twist[a] + t2.twist[b]) % 1
             for a in t1.labels for b in t2.labels}
    dim = {f"({a},{b})": t1.dim[a] * t2.dim[b]
           for a in t1.labels for b in t2.labels}
    return AnyonTheory(f"{t1.name}x{t2.name}", labels, fusion, twist, dim,
                       t1.total_dim * t2.total_dim)


def is_isomorphic(t1: AnyonTheory, t2: AnyonTheory) -> bool:
    """Whether a unit-preserving bijection matches fusion, twists and
    dimensions.

    The bijection is built label by label in ``t1`` order, with backtracking:
    a label only goes to a free label of equal twist and dimension, and a
    branch is cut as soon as the fusion of two mapped labels disagrees on
    the outcomes mapped so far.  Once every label is mapped, that check on
    every pair is the full one.
    """
    if len(t1.labels) != len(t2.labels):
        return False
    phi, inverse = {}, {}

    def agrees(a, x):
        for p, q in ((a, x), (x, a)):
            out1, out2 = t1.fusion[(p, q)], t2.fusion[(phi[p], phi[q])]
            if len(out1) != len(out2) or (
                    {phi[c]: m for c, m in out1.items() if c in phi}
                    != {c: m for c, m in out2.items() if c in inverse}):
                return False
        return True

    def extend(i):
        if i == len(t1.labels):
            return all(agrees(a, b) for a in t1.labels for b in t1.labels)
        a = t1.labels[i]
        for b in (t2.unit,) if i == 0 else t2.labels:
            if b in inverse or t1.twist[a] != t2.twist[b] or t1.dim[a] != t2.dim[b]:
                continue
            phi[a], inverse[b] = b, a
            if all(agrees(a, x) for x in phi) and extend(i + 1):
                return True
            del phi[a], inverse[b]
        return False

    return extend(0)


# turns k/d in lowest terms, keyed by (k, d)
_NAMED_TURNS = {(0, 1): "1", (1, 4): "i", (1, 2): "-1", (3, 4): "-i"}


def turn_to_str(turn: Fraction) -> str:
    # n/d in lowest terms, so (n mod d)/d is too: the turn mod 1
    d = turn.denominator
    k = turn.numerator % d
    return _NAMED_TURNS.get((k, d)) or f"e^{{2*pi*i*{k}/{d}}}"
