"""Dense reference linear algebra: the test oracle for the sparse kernel in
`nakayama.linalg`.  Matrices are lists of rows of Python ints."""


def bareiss_rank(mat):
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    The one-step Bareiss update keeps every intermediate entry an exact
    integer: after eliminating with pivot p, each entry is divided by the
    previous pivot, and that division is exact.
    """
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def to_dense(columns, rows):
    """The rows x len(columns) matrix of a map given as sparse columns."""
    return [[col.get(i, 0) for col in columns] for i in range(rows)]


def to_sparse(mat):
    """Sparse columns {row: entry} of a dense matrix."""
    ncols = len(mat[0]) if mat else 0
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]
