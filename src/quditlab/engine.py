"""Exact linear algebra over Z_N for stabilizer groups.

Group order, logical dimension and membership are computed from the index
of the lattice L spanned by the rows of G and N Z^{2n}: the subgroup of
Z_N^{2n} generated by the rows has order N^{2n} / [Z^{2n} : L], which is
N^{2n} / prod(diag SNF [G; N*I]).  N is not assumed prime (Z_4 is not a
field), so the elimination works over Z with gcd steps.

Every routine works on nonzero support only.  Each model carries a
site -> generator incidence index, built once (``StabilizerModel.incidence``):
the commutation check visits the generator pairs that share a site, a
syndrome or a membership pre-check visits the generators incident to the
word's support, O(weight x degree), and the elimination takes sparse rows
read straight off the words' supports.  ``GeneratorMatrix`` keeps dense
rows for callers that want the matrix itself; the model-facing routines do
not build it.

Phases are ignored for order and membership; the built-in models are
sign-consistent by construction and a brute-force check asserts so on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count

from .errors import InvalidModelError, ShapeError
from .pauli import PauliOp, identity, pauli_mul

__all__ = [
    "GeneratorMatrix",
    "Syndrome",
    "subgroup_order",
    "lattice_index",
    "sparse_lattice_index",
    "logical_dimension",
    "is_member",
    "syndrome",
    "excitation_energy",
    "brute_force_subgroup_order",
]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Integer matrix, one row per generator, columns (x-block | z-block) mod N."""

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
        rows = []
        for op in ops:
            if op.modulus != modulus or op.sites != sites:
                raise ShapeError("generator register mismatch")
            row = [0] * (2 * sites)
            for s, x, z in op.terms:
                row[s] = x
                row[sites + s] = z
            rows.append(tuple(row))
        return cls(modulus, tuple(rows), 2 * sites)


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    d, s, t = _egcd(b, a % b)
    return d, t, s - (a // b) * t


def lattice_index(rows, modulus, columns) -> int:
    """[Z^columns : L] for the lattice L spanned by dense ``rows`` and N Z^columns.

    Converts each row to its nonzero entries and eliminates with
    :func:`sparse_lattice_index`.
    """
    N = modulus
    return sparse_lattice_index(
        ({c: e for c in compress(count(), r) if (e := r[c] % N)} for r in rows),
        modulus, columns)


def sparse_lattice_index(rows, modulus, columns) -> int:
    """[Z^columns : L] for the lattice L spanned by ``rows`` and N Z^columns.

    Column-wise gcd triangularization on sparse rows ``{column: exponent}``
    (entries reduced mod N, zeros dropped; the rows are not modified),
    bucketed by leading column.  The rows leading in a column are
    gcd-combined until one pivot remains; a combination whose entry there
    cancels moves to the bucket of its new leading column, and the
    annihilator (N/d) * pivot is re-inserted the same way.  The result
    equals the diagonal product of the Smith normal form of the stacked
    matrix [rows; N I] (cross-checked in the tests).  The cost follows the
    nonzeros the elimination touches, not rows x columns.
    """
    N = modulus
    buckets = {}

    def push(row):
        if row:
            buckets.setdefault(min(row), []).append(row)

    for r in rows:
        push(r)
    index = 1
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
        push({c: e for c, v in pivot.items() if (e := a * (N // d) * v % N)})
    return index


def subgroup_order(gens: GeneratorMatrix) -> int:
    """Order of the subgroup of Z_N^{2n} generated by the rows."""
    n2 = gens.columns
    prod = lattice_index(gens.rows, gens.modulus, n2)
    total = gens.modulus ** n2
    assert total % prod == 0
    return total // prod


def _row(op: PauliOp, sites: int) -> dict:
    """The ``sparse_lattice_index`` row of a word: x block, then z block."""
    row = {}
    for s, x, z in op.terms:
        if x:
            row[s] = x
        if z:
            row[sites + s] = z
    return row


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
    index = sparse_lattice_index((_row(g.op, n) for g in model.generators), N, 2 * n)
    order = N ** (2 * n) // index
    total = N ** n
    if total % order:
        raise InvalidModelError("stabilizer order does not divide Hilbert dimension")
    return total // order


def is_member(model, op: PauliOp) -> bool:
    """True iff op lies in the stabilizer group up to phase.

    Operators that fail to commute with some generator are detectable errors,
    not members; they return False without raising.  Otherwise op is a
    member exactly when appending its row leaves the lattice index unchanged.
    """
    if op.modulus != model.modulus or op.sites != model.n_sites:
        raise ShapeError("operator register does not match model")
    if _noncommuting(model, op):
        return False
    n, N = model.n_sites, model.modulus
    rows = [_row(g.op, n) for g in model.generators]
    return (sparse_lattice_index(rows + [_row(op, n)], N, 2 * n)
            == sparse_lattice_index(rows, N, 2 * n))


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
    rows = [tuple(e % n for e in r) for r in gens.rows]
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
