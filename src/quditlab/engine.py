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
pivots.  Each model caches its echelon once (``StabilizerModel.echelon``):
``logical_dimension`` reads the index from it and ``is_member`` reduces the
word's row against the stored pivots, with no second elimination.  Each
model also carries a site -> generator incidence index
(``StabilizerModel.incidence``): the commutation check visits the generator
pairs that share a site, and a syndrome or a membership pre-check visits
the generators incident to the word's support, O(weight x degree).

Phases are ignored for order and membership; the built-in models are
sign-consistent by construction and a brute-force check asserts so on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidModelError, ShapeError
from .pauli import PauliOp, identity, pauli_mul

__all__ = [
    "GeneratorMatrix",
    "Echelon",
    "Syndrome",
    "echelon",
    "subgroup_order",
    "lattice_index",
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
    def from_ops(cls, ops, modulus: int = None, sites: int = None) -> "GeneratorMatrix":
        ops = list(ops)
        if ops:
            modulus = ops[0].modulus
            sites = ops[0].sites
        if modulus is None or sites is None:
            raise ShapeError("empty generator list needs explicit modulus and sites")
        for op in ops:
            if op.modulus != modulus or op.sites != sites:
                raise ShapeError("generator register mismatch")
        return cls(modulus, tuple(_row(op) for op in ops), 2 * sites)

    @classmethod
    def from_dense(cls, modulus: int, rows, columns: int) -> "GeneratorMatrix":
        """The matrix of dense integer rows; column c stays column c."""
        return cls(modulus, tuple({c: e for c, v in enumerate(r) if (e := v % modulus)}
                                  for r in rows), columns)


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    d, s, t = _egcd(b, a % b)
    return d, t, s - (a // b) * t


@dataclass(frozen=True)
class Echelon:
    """The index [Z^columns : L] of a row lattice L and its pivots.

    ``pivots`` maps each pivot column c to (row, d, a): the pivot row, whose
    first nonzero column is c, d = gcd(row[c], N) and a with
    a * row[c] = d mod N.
    """

    modulus: int
    index: int
    pivots: dict

    def contains(self, row: dict) -> bool:
        """True iff the sparse row lies in L, by reduction against the pivots.

        Every vector of L whose first nonzero column is c has there a
        multiple of d_c, and subtracting the matching multiple of the pivot
        leaves a vector of L that starts later (Howell form; Storjohann and
        Mulders, "Fast algorithms for linear algebra modulo N", 1998).  So
        a leading entry with no pivot, or not divisible by d_c, means "not
        in L".
        """
        N = self.modulus
        row = dict(row)
        while row:
            col = min(row)
            if col not in self.pivots:
                return False
            pivot, d, a = self.pivots[col]
            if row[col] % d:
                return False
            q = a * (row[col] // d)
            for c, v in pivot.items():
                e = (row.get(c, 0) - q * v) % N
                if e:
                    row[c] = e
                else:
                    row.pop(c, None)
        return True


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
    """
    N = modulus
    buckets = {}

    def push(row):
        if row:
            buckets.setdefault(min(row), []).append(row)

    for r in rows:
        push(r)
    index = 1
    pivots = {}
    for col in range(columns):
        nz = buckets.pop(col, None)
        if not nz:
            index *= N
            continue
        # gcd-combine rows until a single nonzero entry remains in this column
        while len(nz) > 1:
            nz.sort(key=lambda r: r[col])
            base = nz[0]
            out = [base]
            for r in nz[1:]:
                q = r[col] // base[col]
                new = dict(r)
                for c, v in base.items():
                    e = (new.get(c, 0) - q * v) % N
                    if e:
                        new[c] = e
                    else:
                        new.pop(c, None)
                if col in new:
                    out.append(new)
                else:
                    push(new)
            nz = out
        pivot = nz[0]
        d, a, _ = _egcd(pivot[col], N)
        index *= d
        pivots[col] = (pivot, d, a)
        if d > 1:
            push({c: e for c, v in pivot.items() if (e := (N // d) * v % N)})
    return Echelon(N, index, pivots)


def lattice_index(rows, modulus, columns) -> int:
    """[Z^columns : L] for the lattice L spanned by sparse ``rows`` and N Z^columns."""
    return echelon(rows, modulus, columns).index


def subgroup_order(gens: GeneratorMatrix) -> int:
    """Order of the subgroup of Z_N^{2n} generated by the rows."""
    n2 = gens.columns
    prod = lattice_index(gens.rows, gens.modulus, n2)
    total = gens.modulus ** n2
    assert total % prod == 0
    return total // prod


def _first_noncommuting_pair(model):
    """The first pair (i, j), i < j, in loop order whose generators do not commute.

    Words that share no site commute, so the model's site -> generator
    incidence lists the candidate partners of each generator and the
    symplectic form is summed over the shared sites only.  Returns None
    when all pairs commute.
    """
    inc = model.incidence
    for i, g in enumerate(model.generators):
        acc = {}
        for s, x, z in g.op.terms:
            for j, xo, zo in inc[s]:
                if j > i:
                    acc[j] = acc.get(j, 0) + z * xo - x * zo
        for j in sorted(acc):
            if acc[j] % model.modulus:
                return i, j
    return None


def _noncommuting(model, op: PauliOp) -> dict:
    """{position: commutation_exponent(g.op, op)} for every generator g that
    does not commute with ``op``, in generator order.

    Only the generators incident to op's support are visited, so a
    weight-w word costs O(w x degree).
    """
    inc = model.incidence
    acc = {}
    for s, x, z in op.terms:
        for j, gx, gz in inc.get(s, ()):
            acc[j] = acc.get(j, 0) + gz * x - gx * z
    n = model.modulus
    return {j: k for j in sorted(acc) if (k := acc[j] % n)}


def logical_dimension(model) -> int:
    """N^sites / |stabilizer group|; requires pairwise-commuting generators."""
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
    """True iff op lies in the stabilizer group up to phase.

    Operators that fail to commute with some generator are detectable errors,
    not members; they return False without raising.  Otherwise op's row is
    reduced against the pivots of the model's cached echelon.
    """
    if op.modulus != model.modulus or op.sites != model.n_sites:
        raise ShapeError("operator register does not match model")
    if _noncommuting(model, op):
        return False
    return model.echelon.contains(_row(op))


@dataclass(frozen=True)
class Syndrome:
    """Measured eigenvalue exponents, one entry per violated generator.

    Exponents are normalized to the generator's declared order: generator g
    of order r on error E picks up eigenvalue exp(2*pi*i*s/r) with
    s = commutation_exponent(g, E) * r / N mod r.  Unviolated generators are
    omitted from ``exponents``.
    """

    exponents: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)

    def violated(self, kind_prefix: str = None):
        if kind_prefix is None:
            return sorted(self.exponents)
        return sorted(g for g in self.exponents
                      if self.kinds[g].startswith(kind_prefix))

    @property
    def violated_vertices(self):
        return self.violated("vertex")

    @property
    def violated_plaquettes(self):
        return self.violated("plaquette")

    @property
    def violated_edges(self):
        return self.violated("edge")

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
    n = model.modulus
    exps = {}
    kinds = {}
    for j, k in _noncommuting(model, error).items():
        g = model.generators[j]
        exps[g.gid] = k * g.order // n % g.order
        kinds[g.gid] = g.kind
    return Syndrome(exps, kinds)


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


def assert_sign_consistent(model, bound: int = 200000):
    """Brute-force check: no generated word equals a nontrivial phase times identity.

    Only usable on models whose full group closure is enumerable (tests).
    """
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
