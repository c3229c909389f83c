"""Reference oracle: the two string builders that ``lattice.string_operator``
replaced, kept as they were.

``toric_string_operator`` writes the e and m strings with one four-way
branch per type; the doubled-semion ``string_operator`` multiplies one
``_segment`` word per dual step, taking the adjoint on a reverse step, and
returns a ``StringOperator``.  Both serve to cross-check the table-driven
builder word for word, terms and phase.
"""

from quditlab.dsemion import StringOperator
from quditlab.errors import PathError, UnsupportedModelError
from quditlab.lattice import LatticeGeometry, StabilizerModel, _steps
from quditlab.pauli import PauliOp, from_terms, identity, pauli_adjoint, pauli_prod


def toric_string_operator(model: StabilizerModel, path, string_type: str) -> PauliOp:
    """Z-string along a lattice path (type "e") or X-string along a dual path (type "m").

    An e path is a vertex sequence; an m path is a plaquette sequence (dual
    lattice).  Open strings anticommute with exactly the two endpoint
    generators; closed contractible loops are stabilizer products.
    """
    geo = model.geometry
    if geo.placement != "edges":
        raise UnsupportedModelError("string operators need an edge-placement model")
    if len(path) < 2:
        raise PathError("path needs at least two nodes")
    n = model.n_sites
    terms = []
    if string_type == "e":
        for d, x, y in _steps(path, geo):
            if d == "+x":
                terms.append((geo.edge_index("h", x, y), 0, 1))
            elif d == "-x":
                terms.append((geo.edge_index("h", x, y), 0, -1))
            elif d == "+y":
                terms.append((geo.edge_index("v", x, y), 0, 1))
            else:
                terms.append((geo.edge_index("v", x, y), 0, -1))
    elif string_type == "m":
        # crossing signs follow the edge-orientation cross product, so that
        # closed dual loops commute with every plaquette for any modulus
        for d, x, y in _steps(path, geo):
            if d == "+x":
                terms.append((geo.edge_index("v", x + 1, y), -1, 0))
            elif d == "-x":
                terms.append((geo.edge_index("v", x + 1, y), 1, 0))
            elif d == "+y":
                terms.append((geo.edge_index("h", x, y + 1), 1, 0))
            else:
                terms.append((geo.edge_index("h", x, y + 1), -1, 0))
    else:
        raise PathError(f"unknown string type {string_type!r}")
    return from_terms(model.modulus, n, terms)


# frozen segment signs: (alpha, beta, alpha', beta') = (1, 1, -1, 1)
def _segment(geo: LatticeGeometry, n: int, direction: str, x: int, y: int,
             sbar: bool) -> PauliOp:
    b = -1 if sbar else 1
    if direction == "+x":
        terms = [(geo.edge_index("v", x + 1, y), 1, 0),
                 (geo.edge_index("h", x + 1, y + 1), 0, b)]
    else:  # "+y"
        terms = [(geo.edge_index("h", x, y + 1), -1, 0),
                 (geo.edge_index("v", x + 1, y + 1), 0, b)]
    return from_terms(4, n, terms)


def string_operator(ds: StabilizerModel, anyon: str, path) -> StringOperator:
    """Realize an anyon string on a path.

    s and sbar take an oriented dual-lattice path (plaquette sequence);
    ssbar takes an unoriented lattice path (vertex sequence).
    """
    geo = ds.geometry
    n = ds.n_sites
    if len(path) < 2:
        raise PathError("string path needs at least two nodes")
    if anyon in ("s", "sbar"):
        segs = []
        for step, x, y in _steps(path, geo):
            seg = _segment(geo, n, "+" + step[1], x, y, anyon == "sbar")
            segs.append(pauli_adjoint(seg) if step[0] == "-" else seg)
        return StringOperator(anyon, tuple(path), pauli_prod(4, n, segs))
    if anyon == "ssbar":
        terms = [(geo.edge_index("h" if step[1] == "x" else "v", x, y), 0, 2)
                 for step, x, y in _steps(path, geo)]
        return StringOperator(anyon, tuple(path), from_terms(4, n, terms))
    if anyon == "1":
        return StringOperator("1", tuple(path), identity(4, n))
    raise UnsupportedModelError(f"unknown anyon type {anyon!r}")
