"""Exact linear algebra over Z_N for stabilizer groups.

Group order, logical dimension and membership are computed from the index
of the lattice L spanned by the rows of G and N Z^{2n}: the subgroup of
Z_N^{2n} generated by the rows has order N^{2n} / [Z^{2n} : L], which is
N^{2n} / prod(diag SNF [G; N*I]).  N is not assumed prime (Z_4 is not a
field), so the elimination works over Z with gcd steps.

Every routine works on nonzero support only.  A row is the sparse
``{column: exponent}`` map of a word's support, site s's x exponent in
column 2s and its z exponent in column 2s + 1 (``_row``); ``GeneratorMatrix``
holds such rows, and dense matrices enter through ``from_dense``.  One
elimination, ``echelon``, returns the index together with its per-column
pivots (``Echelon.raw``); ``Echelon.contains`` reduces a row against them,
and every row update of both is one ``_sub``.  Each model caches its
echelon once (``StabilizerModel.echelon``): ``logical_dimension`` reads the
index from it and ``is_member`` decides by reducing the word's row against
the stored pivots alone, with no second elimination; the dimension itself
is cached per model too (``StabilizerModel.logical_dimension``).  Each
model also carries a site -> generator incidence index
(``StabilizerModel.incidence``, which also checks that every generator
lives on the model's register and that no two share a gid).  One accumulation over it, ``_forms``, serves
both readers: the commutation check visits each pair of generators that
share a site once, from its later member, and a syndrome visits the
generators incident to the word's support, O(weight x degree).

Phases are ignored for order and membership; the built-in models are
sign-consistent by construction, and a brute-force check in the tests
(``tests/sign_reference.py``) asserts so on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import InvalidModelError, ShapeError
from .pauli import PauliOp

__all__ = [
    "GeneratorMatrix",
    "Echelon",
    "Syndrome",
    "echelon",
    "subgroup_order",
    "logical_dimension",
    "is_member",
    "syndrome",
    "excitation_energy",
    "brute_force_subgroup_order",
]


def _row(op: PauliOp) -> dict:
    """The sparse row of a word: site s's x in column 2s, its z in 2s + 1.

    The index does not depend on column order; keeping a site's two columns
    adjacent roughly halves the fill-in of the elimination on the doubled
    semion.
    """
    row = {}
    for s, x, z in op.terms:
        if x:
            row[2 * s] = x
        if z:
            row[2 * s + 1] = z
    return row


@dataclass(frozen=True)
class GeneratorMatrix:
    """Integer matrix mod N, one sparse row ``{column: exponent}`` per
    generator (entries reduced mod N, zeros dropped)."""

    modulus: int
    rows: tuple
    columns: int

    @classmethod
    def from_ops(cls, ops) -> "GeneratorMatrix":
        """The rows of ``ops``, which must share one register (ShapeError
        otherwise, and for no ops, which name none)."""
        ops = list(ops)
        if not ops:
            raise ShapeError("empty generator list has no register")
        N, n = ops[0].modulus, ops[0].sites
        if any(op.modulus != N or op.sites != n for op in ops):
            raise ShapeError("generator register mismatch")
        return cls(N, tuple(_row(op) for op in ops), 2 * n)

    @classmethod
    def from_dense(cls, modulus: int, rows, columns: int) -> "GeneratorMatrix":
        """The matrix of dense integer rows; column c stays column c."""
        return cls(modulus, tuple({c: e for c, v in enumerate(r) if (e := v % modulus)}
                                  for r in rows), columns)


@dataclass(frozen=True)
class Echelon:
    """The index [Z^columns : L] of a row lattice L and its pivots.

    ``raw`` maps each pivot column c to (pivot, d, a) in the form the
    elimination produced it: the pivot is a dict row whose first nonzero
    column is c, or an ``int`` bitset b (bit i for column c + i) standing
    for the row h * b, h = N/2; d = gcd(pivot[c], N) and a * pivot[c] = d
    mod N (d = h and a = 1 for a bitset).
    """

    modulus: int
    index: int
    raw: dict

    def contains(self, row: dict) -> bool:
        """True iff the sparse row lies in L, by reduction against the pivots.

        Every vector of L whose first nonzero column is c has there a
        multiple of d_c, and subtracting the matching multiple of the pivot
        leaves a vector of L that starts later (Howell form; Storjohann and
        Mulders, "Fast algorithms for linear algebra modulo N", 1998).  So
        a leading entry with no pivot, or not divisible by d_c, means "not
        in L".  A bitset pivot is subtracted as h = N/2 on its set columns.
        """
        N = self.modulus
        h = N // 2
        raw = self.raw
        row = dict(row)
        while row:
            col = min(row)
            if col not in raw:
                return False
            pivot, d, a = raw[col]
            if row[col] % d:
                return False
            _sub(row, a * (row[col] // d),
                 _halves(col, pivot, h) if isinstance(pivot, int) else pivot.items(), N)
        return True


def _sub(row: dict, q: int, terms, N: int) -> dict:
    """``row`` minus q times the sparse ``terms`` (column, value), mod N and
    in place, zeros dropped; returns ``row``.  The one row update of the
    elimination: its gcd step, its d = N/2 move, its annihilator and the
    reduction of ``Echelon.contains``."""
    for c, v in terms:
        e = (row.get(c, 0) - q * v) % N
        if e:
            row[c] = e
        else:
            row.pop(c, None)
    return row


def _halves(col: int, b: int, h: int) -> list:
    """The (column, h) terms of the bitset b: column col + i for each set
    bit i, ascending."""
    out = []
    while b:
        low = b & -b
        out.append((col + low.bit_length() - 1, h))
        b ^= low
    return out


def echelon(rows, modulus, columns) -> Echelon:
    """Eliminate sparse ``rows`` together with N Z^columns.

    Column-wise gcd triangularization on sparse rows ``{column: exponent}``
    (entries reduced mod N, zeros dropped; the rows are not modified),
    bucketed by leading column.  The rows leading in a column are
    gcd-combined until one pivot remains; a combination whose entry there
    cancels moves to the bucket of its new leading column, and the
    annihilator (N/d) * pivot, zero when the pivot is a unit, is
    re-inserted the same way.  The index equals the diagonal product of
    the Smith normal form of the stacked matrix [rows; N I] (cross-checked
    in the tests).  The cost follows the nonzeros the elimination touches,
    not rows x columns.

    For N = 2 and 4 a row whose entries all equal h = N/2 (every Z_2 row,
    the doubled semion's order-2 B_p^2 and C_e rows, the d = 2
    annihilators on Z_4) is h times a GF(2) vector, held as an ``int``
    bitset relative to its leading column and reduced by XOR, since
    h * x mod N depends only on x mod 2.  These are the even moduli whose
    pivot entries have d = gcd(P[col], N) of 1 or h alone.  A column
    holding both kinds first gcd-combines its dict rows into one pivot P,
    then:

    * d = 1: every bitset b takes b ^= odd(P), the bitset of P's odd
      entries (h b - h a P with a P[col] = 1 mod N, a odd);
    * d = h: the first bitset b0 becomes the pivot, P + h b0 moves on and
      every other bitset takes b ^= b0.

    A column of bitsets alone pivots on its first and XORs it into the
    rest.  Every pivot stays in the form it was made in, a bitset pivot as
    its ``int`` (``Echelon.raw``); each call computes (d, a) once per
    distinct pivot entry (``residues``).
    """
    N = modulus
    h = N // 2 if N in (2, 4) else 0
    buckets = {}  # leading column -> dict rows
    bitsets = {}  # leading column -> bitsets, bit i for column + i
    residues = {}  # P[col] -> (gcd(P[col], N), a) with a * P[col] = gcd mod N
    halves = {h}

    def push(row):
        if not row:
            return
        col = min(row)
        if row[col] == h and set(row.values()) == halves:
            b = 0
            for c in row:
                b |= 1 << (c - col)
            bitsets.setdefault(col, []).append(b)
        else:
            buckets.setdefault(col, []).append(row)

    for r in rows:
        push(r)
    index = 1
    pivots = {}
    for col in range(columns):
        nz = buckets.pop(col, None)
        bs = bitsets.pop(col, ()) if bitsets else ()
        if nz:
            # gcd-combine until a single nonzero entry remains in this column
            while len(nz) > 1:
                nz.sort(key=lambda r: r[col])
                base = nz[0]
                out = [base]
                for r in nz[1:]:
                    new = _sub(dict(r), r[col] // base[col], base.items(), N)
                    if col in new:
                        out.append(new)
                    else:
                        push(new)
                nz = out
            pivot = nz[0]
            v = pivot[col]
            da = residues.get(v)
            if da is None:
                d = gcd(v, N)
                da = residues[v] = (d, pow(v // d, -1, N // d))
            d, a = da
            if bs and d == 1:
                mask = sum(1 << (c - col) for c, v in pivot.items() if v & 1)
            elif bs:
                # d == h: the first bitset pivots and P + h b0 moves on
                push(_sub(dict(pivot), -1, _halves(col, bs[0], h), N))
                nz = None
        elif not bs:
            index *= N
            continue
        if not nz:
            # the first bitset pivots; its annihilator 2 h b0 is zero
            mask, bs = bs[0], bs[1:]
            pivot, d, a = mask, h, 1
        for b in bs:
            b ^= mask
            if b:
                low = (b & -b).bit_length() - 1
                bitsets.setdefault(col + low, []).append(b >> low)
        index *= d
        pivots[col] = (pivot, d, a)
        if nz and d > 1:
            push(_sub({}, -(N // d), pivot.items(), N))
    return Echelon(N, index, pivots)


def subgroup_order(gens: GeneratorMatrix) -> int:
    """Order of the subgroup of Z_N^{2n} generated by the rows."""
    n2 = gens.columns
    prod = echelon(gens.rows, gens.modulus, n2).index
    total = gens.modulus ** n2
    assert total % prod == 0
    return total // prod


def _forms(inc, op, stop):
    """generator position i -> the symplectic form z_i x - x_i z of generator
    i with ``op``, summed over ``op``'s sites, for every i < ``stop`` that
    shares a site with it: the one accumulation of the commutation check and
    the syndrome.  Each ascending incidence list is scanned up to ``stop``."""
    acc = {}
    for s, x, z in op.terms:
        for i, gx, gz in inc.get(s, ()):
            if i >= stop:
                break
            acc[i] = acc.get(i, 0) + gz * x - gx * z
    return acc


def _first_noncommuting_pair(model):
    """The lexicographically first pair (i, j), i < j, whose generators do
    not commute, or None when all pairs commute.

    For each j in order, ``_forms`` sums the form with each earlier
    generator i, stopping at j: a pair sharing a site is visited once.
    After a failing (i0, j0), a later j can only win with i < i0, so the
    scans stop at i0.
    """
    inc = model.incidence
    N = model.modulus
    first = None
    for j, g in enumerate(model.generators):
        acc = _forms(inc, g.op, j if first is None else first[0])
        bad = [i for i, k in acc.items() if k % N]
        if bad:
            first = min(bad), j
    return first


def logical_dimension(model) -> int:
    """N^sites / |stabilizer group|; requires pairwise-commuting generators.

    Read from the model's cache (``StabilizerModel.logical_dimension``), so
    each model runs the commutation check and reads its index once; a model
    whose generators do not commute raises ``InvalidModelError`` on every
    call.
    """
    return model.logical_dimension


def _logical_dimension(model) -> int:
    """The uncached ``logical_dimension``."""
    pair = _first_noncommuting_pair(model)
    if pair:
        i, j = pair
        raise InvalidModelError(
            f"generators {model.generators[i].gid} and "
            f"{model.generators[j].gid} do not commute")
    n, N = model.n_sites, model.modulus
    order = N ** (2 * n) // model.echelon.index
    total = N ** n
    if total % order:
        raise InvalidModelError("stabilizer order does not divide Hilbert dimension")
    return total // order


def is_member(model, op: PauliOp) -> bool:
    """True iff op lies in the stabilizer group up to phase, by reducing its
    row against the pivots of the model's cached echelon.

    The generators are taken to commute, as ``logical_dimension`` checks:
    a row of the lattice is then a product of commuting generators up to
    phase, so a word that fails to commute with some generator fails the
    reduction and returns False without raising.
    """
    if op.modulus != model.modulus or op.sites != model.n_sites:
        raise ShapeError("operator register does not match model")
    return model.echelon.contains(_row(op))


@dataclass(frozen=True)
class Syndrome:
    """Measured eigenvalue exponents, one entry per violated generator.

    Exponents are normalized to the generator's declared order: generator g
    of order r on error E picks up eigenvalue exp(2*pi*i*s/r) with
    s = commutation_exponent(g, E) * r / N mod r.  Unviolated generators are
    omitted.
    """

    exponents: dict = field(default_factory=dict)

    def weight(self) -> int:
        return len(self.exponents)

    def __bool__(self):
        return bool(self.exponents)


def syndrome(model, error: PauliOp) -> Syndrome:
    """Commutation exponent of every generator against the error.

    Only the generators incident to the error's support are visited: a
    weight-w error costs O(w x degree), not O(generators x sites).
    Violated generators are listed in generator order.
    """
    if error.modulus != model.modulus or error.sites != model.n_sites:
        raise ShapeError("error register does not match model")
    acc = _forms(model.incidence, error, len(model.generators))
    n = model.modulus
    exps = {}
    for j in sorted(acc):
        if k := acc[j] % n:
            g = model.generators[j]
            exps[g.gid] = k * g.order // n % g.order
    return Syndrome(exps)


def excitation_energy(model, error: PauliOp) -> int:
    """Number of violated generators (violated-stabilizer counting only)."""
    return syndrome(model, error).weight()


def brute_force_subgroup_order(gens: GeneratorMatrix) -> int:
    """Oracle: BFS closure of the rows under addition mod N."""
    n = gens.modulus
    seen = {(0,) * gens.columns}
    frontier = [(0,) * gens.columns]
    rows = [tuple(r.get(c, 0) for c in range(gens.columns)) for r in gens.rows]
    while frontier:
        cur = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % n for a, b in zip(cur, r))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)
