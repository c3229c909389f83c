"""Reference oracle: the per-term lattice construction that the offset table
``lattice.TERMS`` replaced, kept as it was.

Each term is a list of ``(site, x, z)`` triples from the geometry's site
calls (``vertex_star``, ``plaquette_boundary``, ``edge_index``,
``vertex_index``), and each word is one ``from_terms`` merge of them; a
Bombin cell is written by its X/Z/Y corners.  ``lattice.term_words`` must
give the same words, terms and phase, for every anchor.
"""

from quditlab.errors import GeometryError
from quditlab.pauli import from_terms


def _cell(geo, x, y, layer):
    """The site of h(x, y) in ``layer``; v(x, y) is the next one."""
    if geo.placement != "edges":
        raise GeometryError("edge_index needs edge placement")
    return layer * geo.sites_per_layer + 2 * (y % geo.rows * geo.cols + x % geo.cols)


def vertex_star(geo, x, y, layer=0):
    """(site, x-exp, z-exp) triples of the vertex operator at (x, y):
    h(x-1, y), v(x, y-1), h(x, y) and v(x, y)."""
    here = _cell(geo, x, y, layer)
    return [(_cell(geo, x - 1, y, layer), 1, 0), (_cell(geo, x, y - 1, layer) + 1, 1, 0),
            (here, -1, 0), (here + 1, -1, 0)]


def plaquette_boundary(geo, x, y, layer=0):
    """(site, x-exp, z-exp) triples of the plaquette operator with SW
    corner (x, y): h(x, y), v(x+1, y), h(x, y+1) and v(x, y)."""
    here = _cell(geo, x, y, layer)
    return [(here, 0, 1), (_cell(geo, x + 1, y, layer) + 1, 0, 1),
            (_cell(geo, x, y + 1, layer), 0, -1), (here + 1, 0, -1)]


def star_op(geo, modulus, x, y, layer=0):
    return from_terms(modulus, geo.n_sites, vertex_star(geo, x, y, layer))


def plaquette_op(geo, modulus, x, y, layer=0, power=1):
    return from_terms(modulus, geo.n_sites, [
        (s, 0, power * z) for s, _, z in plaquette_boundary(geo, x, y, layer)])


def fish_op(geo, modulus, x, y, layer=0):
    """A(x, y) * B(x, y): the star and its north-east plaquette, merged."""
    return from_terms(modulus, geo.n_sites,
                      vertex_star(geo, x, y, layer) + plaquette_boundary(geo, x, y, layer))


def hop_op(geo, modulus, orient, x, y, layer=0, power=1):
    """Z on h(x,y) * X^-1 on v(x+1,y) (orient "h") or Z on v(x,y) * X^-1 on
    h(x,y+1) (orient "v"), raised to ``power``."""
    far = ("v", x + 1, y) if orient == "h" else ("h", x, y + 1)
    return from_terms(modulus, geo.n_sites, [(geo.edge_index(orient, x, y, layer), 0, power),
                                             (geo.edge_index(*far, layer), -power, 0)])


_CORNER = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

# ((dx, dy), pauli) corners of the vertex cells, taken from their anchor, and
# the phase that makes the pentagons' X Z corner a Y
CELLS = {
    "cell": ((((0, 0), "X"), ((1, 0), "Z"), ((1, 1), "X"), ((0, 1), "Z")), 0),
    "parallelogram": ((((0, 0), "X"), ((1, 0), "Z"), ((1, 1), "Z"), ((2, 1), "X")), 0),
    "pentagon-l": ((((-1, 0), "X"), ((0, 0), "Z"), ((-1, 1), "Z"), ((0, 1), "Y"),
                    ((1, 1), "X")), 1),
    "pentagon-r": ((((-1, 0), "X"), ((0, 0), "Y"), ((1, 0), "Z"), ((0, 1), "Z"),
                    ((1, 1), "X")), 1),
}


def cell_op(geo, corners, phase=0):
    """The qubit word with X, Z or Y on each ``((x, y), pauli)`` vertex corner."""
    return from_terms(2, geo.n_sites, [(geo.vertex_index(x, y), *_CORNER[p])
                                       for (x, y), p in corners], phase=phase)


def cell(geo, name, x, y):
    """The ``CELLS[name]`` cell anchored at (x, y)."""
    corners, phase = CELLS[name]
    return cell_op(geo, [((x + dx, y + dy), p) for (dx, dy), p in corners], phase)
