"""Reference oracle: group order from the Smith normal form of [G; N I].

An independent, deliberately plain path for cross-checking the sparse
elimination in ``quditlab.engine.lattice_index``.  It diagonalizes the dense
stacked matrix by unimodular row and column operations, so it is only for
the small matrices the tests draw.
"""

from quditlab.engine import GeneratorMatrix


def smith_normal_form(rows, columns):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the list of nonzero diagonal entries (not necessarily in divisor
    order, which no caller needs).
    """
    m = [list(r) for r in rows]
    nrows = len(m)

    def col_op(j, k, factor):
        for r in m:
            r[j] += factor * r[k]

    def col_swap(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]

    diag = []
    top = 0
    left = 0
    while top < nrows and left < columns:
        # locate the smallest-magnitude nonzero pivot at or below/right of (top,left)
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(left, columns):
                a = m[i][j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        if pj != left:
            col_swap(left, pj)
        while True:
            p = m[top][left]
            dirty = False
            for i in range(top + 1, nrows):
                if m[i][left]:
                    q = m[i][left] // p
                    if q:
                        for j in range(left, columns):
                            m[i][j] -= q * m[top][j]
                    if m[i][left]:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(left + 1, columns):
                if m[top][j]:
                    q = m[top][j] // p
                    if q:
                        col_op(j, left, -q)
                    if m[top][j]:
                        col_swap(left, j)
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    return diag


def _stacked(gens: GeneratorMatrix):
    n2 = gens.columns
    rows = [tuple(e % gens.modulus for e in r) for r in gens.rows]
    rows += [tuple(gens.modulus if j == i else 0 for j in range(n2)) for i in range(n2)]
    return rows


def subgroup_order_snf(gens: GeneratorMatrix) -> int:
    """The subgroup order N^{2n} / prod(diag SNF [G; N I])."""
    n2 = gens.columns
    prod = 1
    for d in smith_normal_form(_stacked(gens), n2):
        prod *= d
    total = gens.modulus ** n2
    assert total % prod == 0
    return total // prod
