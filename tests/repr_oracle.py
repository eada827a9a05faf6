"""Brute-force projective-dimension oracle.

Builds the honest quiver representation of a uniserial module over a small
prime field, forms the projective cover matrix vertex by vertex, computes
the kernel representation by explicit Gaussian elimination (including the
induced arrow maps on kernel bases), and iterates.  Completely independent
of the interval rule for syzygies, which `nakayama.algebra.global_dimension`
walks from the simple modules and `enumeration_oracle.syzygy` applies to
any uniserial module.
"""

PRIME = 5


def _rref(rows, ncols, p=PRIME):
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _rank(rows, ncols, p=PRIME):
    return len(_rref(rows, ncols, p)[1])


def _nullspace(rows, ncols, p=PRIME):
    """Column vectors spanning the kernel of the matrix."""
    m, pivots = _rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][fc]) % p
        basis.append(v)
    return basis


def _mat_vec(rows, vec, p=PRIME):
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def _solve_in_span(span_vectors, target, p=PRIME):
    """Coefficients x with sum x_i span_i = target; raises if unsolvable."""
    if not span_vectors:
        assert all(t % p == 0 for t in target), "target outside the span"
        return []
    dim = len(target)
    augmented = [
        [span_vectors[j][i] for j in range(len(span_vectors))] + [target[i]]
        for i in range(dim)
    ]
    m, pivots = _rref(augmented, len(span_vectors) + 1, p)
    assert len(span_vectors) not in pivots, "target outside the span"
    x = [0] * len(span_vectors)
    for r, pc in enumerate(pivots):
        x[pc] = m[r][len(span_vectors)]
    return x


def uniserial_rep(n, top, length):
    """Dimension vector and arrow matrices of the uniserial module with the
    given top and length; maps[v] sends the space at v+1 (0-based v) onward."""
    dims = [0] * n
    local = []
    for j in range(length):
        v = (top - 1 + j) % n
        local.append((v, dims[v]))
        dims[v] += 1
    maps = [
        [[0] * dims[v] for _ in range(dims[(v + 1) % n])] for v in range(n)
    ]
    for j in range(length - 1):
        v, src = local[j]
        w, dst = local[j + 1]
        assert w == (v + 1) % n
        maps[v][dst][src] = 1
    return dims, maps


def _top_vertex(n, dims, maps):
    """The unique vertex where M / rad M lives, found by rank computations."""
    tops = [
        dims[v] - _rank(maps[(v - 1) % n], dims[(v - 1) % n])
        for v in range(n)
    ]
    assert sum(tops) == 1, f"module is not uniserial: top dimensions {tops}"
    return tops.index(1) + 1


def _cover_kernel(algebra, dims, maps):
    """Kernel representation of the projective cover of a uniserial rep."""
    n = algebra.n
    top = _top_vertex(n, dims, maps)
    p_dims, p_maps = uniserial_rep(n, top, algebra.kupisch[top - 1])

    cover = [
        [[0] * p_dims[v] for _ in range(dims[v])] for v in range(n)
    ]
    m_local = {}
    seen = [0] * n
    length = sum(dims)
    for j in range(length):
        v = (top - 1 + j) % n
        m_local[j] = (v, seen[v])
        seen[v] += 1
    p_seen = [0] * n
    for j in range(algebra.kupisch[top - 1]):
        v = (top - 1 + j) % n
        if j < length:
            cover[v][m_local[j][1]][p_seen[v]] = 1
        p_seen[v] += 1

    kernels = [_nullspace(cover[v], p_dims[v]) for v in range(n)]
    k_dims = [len(kernels[v]) for v in range(n)]
    k_maps = []
    for v in range(n):
        w = (v + 1) % n
        columns = [
            _solve_in_span(kernels[w], _mat_vec(p_maps[v], vec))
            for vec in kernels[v]
        ]
        k_maps.append(
            [[columns[c][r] for c in range(k_dims[v])] for r in range(k_dims[w])]
        )
    return k_dims, k_maps


def first_syzygy_dims(algebra, top, length):
    """Dimension vector of the explicit kernel of the projective cover."""
    dims, maps = uniserial_rep(algebra.n, top, length)
    k_dims, _ = _cover_kernel(algebra, dims, maps)
    return tuple(k_dims)


def projective_dimension(algebra, top, length):
    """Projective dimension via explicit kernels; None means infinite."""
    dims, maps = uniserial_rep(algebra.n, top, length)
    steps = 0
    seen = set()
    while True:
        signature = (_top_vertex(algebra.n, dims, maps), sum(dims))
        if signature in seen:
            return None
        seen.add(signature)
        k_dims, k_maps = _cover_kernel(algebra, dims, maps)
        if sum(k_dims) == 0:
            return steps
        dims, maps = k_dims, k_maps
        steps += 1
