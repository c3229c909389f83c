"""Reference oracle: the Z2 toric decoder's pairing step by full enumeration.

An independent, deliberately plain path for cross-checking the subset-DP
enumerator in ``quditlab.decoders``: build every perfect pairing of the
violations, keep those of minimum total torus distance, and turn each into
geodesic string products.  It builds (k-1)!! pairings, so it is only for
the families of at most ``PAIRING_CAP`` violations the tests draw.  The
geodesics come from a search over every path of at most one turn.
"""

from itertools import product

from quditlab.decoders import _class_tuple, _torus_dist
from quditlab.lattice import string_operator
from quditlab.pauli import identity, pauli_mul, sort_key


def one_turn_paths(geo, a, b):
    """Every path from a to b that runs one leg along one axis and then one
    along the other, each leg in either direction and shorter than its
    cycle, in the order: x leg first, then y first; forward before backward
    on the first leg, then on the second."""
    sizes = (geo.cols, geo.rows)
    for order in ((0, 1), (1, 0)):
        for dirs in product((1, -1), repeat=2):
            for counts in product(range(sizes[order[0]]), range(sizes[order[1]])):
                node = list(a)
                path = [tuple(a)]
                for axis, step, count in zip(order, dirs, counts):
                    for _ in range(count):
                        node[axis] = (node[axis] + step) % sizes[axis]
                        path.append(tuple(node))
                if path[-1] == tuple(b):
                    yield tuple(path)


def geodesic_paths(geo, a, b):
    """The shortest paths from a to b with at most one turn, each once, sorted."""
    paths = set(one_turn_paths(geo, a, b))
    best = min(map(len, paths))
    return sorted(p for p in paths if len(p) == best)


def torus_path(geo, a, b):
    """The first shortest of ``one_turn_paths``: its x leg first, and each
    leg forward when both directions are as short."""
    return min(one_turn_paths(geo, a, b), key=len)


def all_pairings(k):
    """Every perfect matching on k indices (k even): the lowest remaining
    index pairs with each later one in ascending order."""
    if k == 0:
        return [()]
    items = list(range(k))

    def rec(rest):
        if not rest:
            return [()]
        i = rest[0]
        out = []
        for pos, j in enumerate(rest[1:], start=1):
            sub = rest[1:pos] + rest[pos + 1:]
            out += [((i, j),) + tail for tail in rec(sub)]
        return out

    return rec(items)


def min_cost_pairings(geo, positions):
    """The minimum-cost pairings of ``positions``, in ``all_pairings`` order."""
    pairings = all_pairings(len(positions))
    costs = [sum(_torus_dist(geo, positions[i], positions[j]) for i, j in pr)
             for pr in pairings]
    best = min(costs)
    return [pr for pr, cost in zip(pairings, costs) if cost == best]


def family_candidates(model, positions, stype):
    """Syndrome-clearing string products for one violation family (modulus 2,
    at most ``PAIRING_CAP`` violations), with one representative per
    (weight, logical class) once there are more than 64 words."""
    geo = model.geometry
    if not positions:
        return [identity(model.modulus, model.n_sites)]
    words = {}
    geodesics = {}  # pair -> its geodesic strings: the search is slow
    for pr in min_cost_pairings(geo, positions):
        partial = [identity(model.modulus, model.n_sites)]
        for i, j in pr:
            if (i, j) not in geodesics:
                geodesics[i, j] = [
                    string_operator(model, stype, path)
                    for path in geodesic_paths(geo, positions[i], positions[j])]
            partial = [pauli_mul(w, s) for w in partial for s in geodesics[i, j]]
        for w in partial:
            words.setdefault(w.terms, w)
    out = sorted(words.values(), key=sort_key)
    if len(out) > 64:
        reps = {}
        for w in out:
            key = (w.weight(), _class_tuple(w, model.logicals))
            if key not in reps:
                reps[key] = w
        out = [reps[k] for k in sorted(reps)]
    return out
