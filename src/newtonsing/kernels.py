"""Lattice box scans and the Laufer completion loop.

Every scan takes rows of positive integer entries (`ValueError` otherwise):
scaled face normals, node rows and Oka's functionals all are.  The
violating scans walk the columns (p0, p1) of a box; as every last entry is
positive, the p2 with rows[i].p < bounds[i] for some i form a prefix of
each column, so a scan costs box^2 * rows plus its output rather than
box^3 * rows.  The histogram scans take no box: a row a with a.p <= cap
bounds every coordinate of p >= lo by itself.  `min_histogram` counts
min_i rows[i].p at each point on the first row attaining it; that row's
points on a column are one interval of p2, counted as one arithmetic
progression.  `form_histogram` counts the values of one row without
visiting a point: its histogram is the truncated product of the geometric
series of each coordinate, three stride passes over one list of counts.
Arithmetic is on Python integers, hence exact.
"""

from collections import Counter
from itertools import accumulate, chain, compress


def _require_positive(rows):
    if any(a <= 0 for row in rows for a in row):
        raise ValueError("lattice scans need rows of positive entries")


def _column_tops(rows, bounds, lo, hi):
    """(p0, p1, top) per column of the box; the violating p2 are lo[2]..top."""
    l2, h2 = lo[2], hi[2]
    # a0 p0 + a1 p1 + a2 p2 < m  <=>  p2 <= (m - 1 - a0 p0 - a1 p1) // a2
    rows = [(a0, a1, a2, m - 1) for (a0, a1, a2), m in zip(rows, bounds)]
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            tops = ((m1 - a0 * p0 - a1 * p1) // a2 for a0, a1, a2, m1 in rows)
            top = min(max(tops, default=l2 - 1), h2)
            if top >= l2:
                yield p0, p1, top


def violating_top(rows, bounds):
    """Top corner of a box [0, top]^3 holding every p >= 0 that violates a row.

    A p >= 0 with rows[i].p < bounds[i] has rows[i][c] * p[c] <= bounds[i] - 1;
    a row with bounds[i] <= 0 holds no such p.
    """
    _require_positive(rows)
    return [max((m - 1) // a[c] if m > 0 else -1 for a, m in zip(rows, bounds)) for c in range(3)]


def count_violating(rows, bounds, lo, hi):
    """Count p in [lo, hi]^3 with rows[i].p < bounds[i] for some i.

    `rows` is a list of integer 3-vectors of positive entries, `bounds` a
    parallel list of ints.
    """
    _require_positive(rows)
    if any(h < l for l, h in zip(lo, hi)):
        return 0
    return sum(top - lo[2] + 1 for _, _, top in _column_tops(rows, bounds, lo, hi))


def collect_violating(rows, bounds, lo, hi):
    """The points counted by count_violating, in lexicographic order."""
    _require_positive(rows)
    if any(h < l for l, h in zip(lo, hi)):
        return []
    columns = _column_tops(rows, bounds, lo, hi)
    return [(p0, p1, p2) for p0, p1, top in columns for p2 in range(lo[2], top + 1)]


def min_histogram(rows, cap, lo):
    """Counter of min_i rows[i].p over the p >= lo where that min is <= cap.

    `rows` is a nonempty list of integer 3-vectors of positive entries.
    Each p is counted on the first row i attaining the min, that is where
    (a2 - b2) p2 <= (b0 - a0) p0 + (b1 - a1) p1 - [j < i] for every other
    row j = (b0, b1, b2) (a = rows[i]).  Then a.p <= cap, which bounds p0,
    p1 and p2 from above.  On a column (p0, p1) the other rows give floor
    bounds (a2 > b2), ceiling bounds (a2 < b2) or all-or-nothing tests
    (a2 = b2) on p2, so row i owns one interval of the column and its
    values are one `range` of step a2.  One `Counter` pass in C counts all
    the ranges.
    """
    _require_positive(rows)
    if not rows:
        raise ValueError("min_histogram needs at least one row")
    ranges = []
    l0, l1, l2 = lo
    for i, (a0, a1, a2) in enumerate(rows):
        others = [(a2 - b2, b0 - a0, b1 - a1, j < i) for j, (b0, b1, b2) in enumerate(rows) if j != i]
        room = cap - a2 * l2  # what a0 p0 + a1 p1 may reach
        for p0 in range(l0, (room - a1 * l1) // a0 + 1):
            terms = [(d, c0 * p0 - t, c1) for d, c0, c1, t in others]
            for p1 in range(l1, (room - a0 * p0) // a1 + 1):
                u = a0 * p0 + a1 * p1
                bottom, top = l2, (cap - u) // a2
                for d, r, c1 in terms:
                    r += c1 * p1
                    if d > 0:
                        top = min(top, r // d)
                    elif d < 0:
                        bottom = max(bottom, -(r // -d))
                    elif r < 0:
                        top = bottom - 1
                values = range(u + a2 * bottom, u + a2 * top + 1, a2)
                if values:
                    ranges.append(values)
    return Counter(chain.from_iterable(ranges))


def form_histogram(row, cap, lo):
    """Counter of row.p over the p >= lo where row.p <= cap, for a row of
    positive entries.

    The values are row.lo + k, and the count at k is the coefficient of t^k
    in the product over c of 1 / (1 - t^a), a = row[c], truncated at
    top = cap - row.lo, which is exact, as no factor lowers a degree.  A
    factor is a prefix sum with stride a.  The cost is O(3 * top), not the
    points counted.
    """
    _require_positive([row])
    shift = sum(a * l for a, l in zip(row, lo))
    top = cap - shift
    if top < 0:
        return Counter()
    counts = [1] + [0] * top
    for a in row:
        for r in range(min(a, top + 1)):
            counts[r::a] = accumulate(counts[r::a])
    values = compress(range(shift, shift + top + 1), counts)
    return Counter(dict(zip(values, filter(None, counts))))


def laufer_complete(b, neighbors, is_node, m):
    """Run the generalized Laufer sequence from the cycle `m` in place.

    While some non-node vertex v has (Z, E_v) = -b_v m_v + sum of neighbour
    coefficients > 0, increment m_v.  Terminates on negative definite graphs;
    returns the number of increments.  `neighbors` lists neighbour ids with
    multiplicity.
    """
    nv = len(b)
    s = [0] * nv
    for v in range(nv):
        t = -b[v] * m[v]
        for u in neighbors[v]:
            t += m[u]
        s[v] = t
    active = [v for v in range(nv) if not is_node[v] and s[v] > 0]
    steps = 0
    while active:
        v = active.pop()
        if s[v] <= 0:
            continue
        m[v] += 1
        steps += 1
        s[v] -= b[v]
        if not is_node[v] and s[v] > 0:
            active.append(v)
        for u in neighbors[v]:
            s[u] += 1
            if not is_node[u] and s[u] > 0:
                active.append(u)
    return steps
