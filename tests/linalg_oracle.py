"""Reference linear algebra: the test oracle for the sparse kernel in
`nakayama.linalg`.  Dense matrices are lists of rows of Python ints.

`chain_ranks` ranks a complex from its cells and never builds a whole
boundary map, and `BoundarySquare` and `CyclicSquare` certify d∘d = 0
without one.  Here the maps are built whole, with their own face and sign
rule, by `boundary_maps`, for the tests that read them: their sparse
composite checks d∘d = 0, Bareiss elimination ranks them, and
`chain_ranks_of_maps` is the clearing pass over finished maps that the
kernel replaced.

`nakayama.cyclic` lists only the critical cells of its Morse matching and
counts the rest.  `cyclic_cells` walks every cell, as the package did
before, and `is_up_set` checks Fact 1 on them, so that the critical cells,
the counts and the HC read off them can be compared with the whole
complex.  `arcs_hold` is the inequality behind Fact 1 checked at every
distance, where `CyclicSquare` compares neighbours only.
`cell_counts_by_least_station` is the count the package made before it
packed every least station into one integer: one pass per least station."""

from nakayama import cyclic, linalg

SparseMap = list[dict[int, int]]


def arcs_hold(c):
    """Is c_x >= c_w - d for every station w and every x in I_w at
    distance d < n?  Every distance is compared."""
    n = len(c)
    return all(c[(w + d) % n] >= c[w] - d for w in range(n) for d in range(1, min(c[w], n)))


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
        pivot, top = m[r][c], m[r]
        for i in range(r + 1, nrows):
            row, a = m[i], m[i][c]
            if a == 0 and pivot == prev:
                continue  # the update would multiply the row by pivot / prev = 1
            for j in range(c + 1, ncols):
                row[j] = (pivot * row[j] - a * top[j]) // prev
            row[c] = 0
        prev = pivot
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


def reduced_betti(f, maps):
    """Reduced Betti numbers, trailing zeros stripped, of the augmented
    complex with cell counts `f` and these boundary maps (sparse columns),
    each map ranked on its own by Bareiss elimination."""
    ranks = [1] + [bareiss_rank(to_dense(m, rows)) for m, rows in zip(maps, f)] + [0]
    betti = [f[p] - ranks[p] - ranks[p + 1] for p in range(len(f))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def cyclic_cells(algebra):
    """Every cell of the cyclic complex, by degree: level p maps each
    p-cell's station bitmask (bit w for station w) to its station tuple.

    The walk extends station tuples one station at a time, from the last
    station w only to a w' <= min(n, w + c_w - 1), one the path from w
    reaches before it dies.  So it visits the tuples whose gaps all carry
    a path, save perhaps the wrap gap n - w_p + w_0, and a tuple is a cell
    when that gap carries one too: when w_0 < c_{w_p} - n + w_p.  Extending
    a level in lexicographic order, in order, lists the next one in
    lexicographic order.
    """
    n, c = algebra.n, algebra.kupisch
    steps = [()] + [
        tuple((x, 1 << x) for x in range(w + 1, min(n, w + c[w - 1] - 1) + 1)) for w in range(1, n + 1)
    ]
    wrap_bound = [0] + [c[w - 1] - n + w for w in range(1, n + 1)]
    levels = []
    walked = [((w,), 1 << w) for w in range(1, n + 1)]
    for _ in range(n):
        levels.append({bits: tup for tup, bits in walked if tup[0] < wrap_bound[tup[-1]]})
        walked = [(tup + (x,), bits | bit) for tup, bits in walked for x, bit in steps[tup[-1]]]
    return levels


def cell_counts_by_least_station(c):
    """The number of p-cells for p = 0..n-1, by one dynamic program per
    least station s: upto[x] sums t^k over the tuples from s with short
    inner gaps, k stations and last station at most x, one integer with
    the coefficient of t^k in bits n*k to n*k + n - 1.  The stations y < x
    whose path reaches x are those from reach[x] on."""
    n = len(c)
    wrap_bound = [0] + [c[w - 1] - n + w for w in range(1, n + 1)]
    reach = [0] * (n + 1)
    y = 1
    for x in range(1, n + 1):
        while y < x and y + c[y - 1] <= x:
            y += 1
        reach[x] = y
    cells = 0
    for s in range(1, n + 1):
        upto = [0] * (n + 1)
        upto[s] = 1 << n
        if s < wrap_bound[s]:
            cells += upto[s]
        for x in range(s + 1, n + 1):
            ending = (upto[x - 1] - upto[max(s, reach[x]) - 1]) << n
            upto[x] = upto[x - 1] + ending
            if s < wrap_bound[x]:
                cells += ending
    mask = (1 << n) - 1
    return tuple(cells >> n * k & mask for k in range(1, n + 1))


def is_up_set(n, levels):
    """Is every superset of a cell a cell?  It is iff, for each station w,
    each cell W without w has W + {w} a cell.  One byte per station bitmask
    marks the cells; read as one integer, shifting it right by 2^w bytes
    lines up the byte of W + {w} with the byte of W, for every W at once."""
    size = 2 << n  # the bitmasks use bits 1..n
    marks = bytearray(size)
    for level in levels:
        for bits in level:
            marks[bits] = 1
    cells = int.from_bytes(marks, "little")
    for w in range(1, n + 1):
        step = 1 << w
        without_w = int.from_bytes((b"\1" * step + b"\0" * step) * (size // (2 * step)), "little")
        if cells & without_w & ~(cells >> 8 * step):
            return False
    return True


def critical_by_definition(levels):
    """The critical cells of the matching W <-> W + {1}, filtered from
    every cell: {1}, if it is a cell, and each cell W containing 1 whose
    W \\ {1} is not a cell."""
    return [
        {bits: cell for bits, cell in level.items() if bits & 2 and (bits == 2 or bits ^ 2 not in levels[p - 1])}
        for p, level in enumerate(levels)
    ]


def cyclic_hc(levels, ranks):
    """dim HC_p for p = 0..len(levels)-1, from cell levels and the ranks of
    d_1, ..., d_{len(levels)-1}."""
    ranks = [0, *ranks, 0]
    return [len(levels[p]) - ranks[p] - ranks[p + 1] for p in range(len(levels))]


def cyclic_bases(algebra):
    """bases[p] lists the p-cells of the cyclic complex of `algebra` as
    sorted station tuples, in lexicographic order."""
    return tuple(tuple(level.values()) for level in cyclic_cells(algebra))


def cyclic_differentials(algebra):
    """differentials[p] maps degree p to degree p-1, as sparse columns
    indexed by cyclic_bases(algebra)[p]; differentials[0] is the zero map."""
    levels = cyclic_cells(algebra)
    zero = [{} for _ in levels[0]]
    return (zero, *boundary_maps(levels, cyclic._SIGN, relative=True))


def chain_ranks_of_maps(maps):
    """Ranks of all maps of a chain complex, maps[i+1] followed by maps[i],
    in one top-down pass with clearing over the finished maps: a pivot row
    j of the reduced maps[i+1] skips column j of maps[i]."""
    ranks = [0] * len(maps)
    cleared = set()
    for i in reversed(range(len(maps))):
        kept = [col for j, col in enumerate(maps[i]) if j not in cleared]
        cleared = set()
        ranks[i] = linalg.rank(kept, cleared)
    return ranks


def boundary_maps(levels, sign, relative=False):
    """The boundary maps between consecutive levels of cells: entry p-1 maps
    level p to level p-1, for p = 1..len(levels)-1, with rows numbering the
    (p-1)-cells in the order of their level.

    Level p maps each p-cell's bitmask to its sorted tuple of elements,
    element v having bit 1 << v.  Face j of a cell drops its j-th element
    and enters with sign * (-1)^j.  A simplicial complex holds every face
    of its simplices, so a missing face raises KeyError; in a `relative`
    complex that face lies in the subcomplex and is zero."""
    maps = []
    for p in range(1, len(levels)):
        row_of = {bits: i for i, bits in enumerate(levels[p - 1])}
        columns = []
        for bits, cell in levels[p].items():
            column = {}
            for j, v in enumerate(cell):
                face = bits ^ 1 << v
                if face in row_of:
                    column[row_of[face]] = sign * (-1) ** j
                elif not relative:
                    raise KeyError(f"face {face:#b} of cell {bits:#b} is not a cell")
            columns.append(column)
        maps.append(columns)
    return maps


def compose(outer, inner) -> SparseMap:
    """Columns of the composite `outer` after `inner`, zero entries dropped.

    The rows of `inner` index the columns of `outer`; a row outside them is
    a shape mismatch and raises ValueError."""
    width = len(outer)
    out = []
    for col in inner:
        acc = {}
        for k, y in col.items():
            if not 0 <= k < width:
                raise ValueError(f"row {k} of the inner map is not one of the {width} outer columns")
            for row, x in outer[k].items():
                acc[row] = acc.get(row, 0) + x * y
        out.append({row: v for row, v in acc.items() if v})
    return out


def squares_to_zero(maps) -> bool:
    """Is maps[i] after maps[i+1] zero for every i?  Checked column by
    column on the sparse form."""
    return all(not any(compose(maps[i], maps[i + 1])) for i in range(len(maps) - 1))
