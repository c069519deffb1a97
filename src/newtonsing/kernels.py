"""Lattice box scans and the Laufer completion loop.

The scans walk the columns (p0, p1) of the box.  When every row has a
nonnegative last entry, the p2 with rows[i].p < bounds[i] for some i form a
prefix of each column, so a scan costs box^2 * rows plus its output rather
than box^3 * rows.  `min_histogram` walks the pieces of min_i rows[i].p
along each column instead of its points, and counts each piece as one
arithmetic progression.  Arithmetic is on Python integers, hence exact.
"""

from collections import Counter
from itertools import chain


def _column_tops(rows, bounds, lo, hi):
    """(p0, p1, top) per column of the box; the violating p2 are lo[2]..top."""
    if any(a2 < 0 for _, _, a2 in rows):
        raise ValueError("box scans need rows with a nonnegative last entry")
    l2, h2 = lo[2], hi[2]
    tilted = [(a0, a1, a2, m - 1) for (a0, a1, a2), m in zip(rows, bounds) if a2]
    flat = [(a0, a1, m) for (a0, a1, a2), m in zip(rows, bounds) if not a2]
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            if any(a0 * p0 + a1 * p1 < m for a0, a1, m in flat):
                top = h2
            else:
                # a0 p0 + a1 p1 + a2 p2 < m  <=>  p2 <= (m - 1 - a0 p0 - a1 p1) // a2
                tops = ((m1 - a0 * p0 - a1 * p1) // a2 for a0, a1, a2, m1 in tilted)
                top = min(max(tops, default=l2 - 1), h2)
            if top >= l2:
                yield p0, p1, top


def violating_top(rows, bounds):
    """Top corner of a box [0, top]^3 holding every p >= 0 that violates a row.

    A p >= 0 with rows[i].p < bounds[i] has rows[i][c] * p[c] <= bounds[i] - 1,
    so the rows must be positive; a row with bounds[i] <= 0 holds no such p.
    """
    return [max((m - 1) // a[c] if m > 0 else -1 for a, m in zip(rows, bounds)) for c in range(3)]


def count_violating(rows, bounds, lo, hi):
    """Count p in [lo, hi]^3 with rows[i].p < bounds[i] for some i.

    `rows` is a list of integer 3-vectors whose last entries are nonnegative,
    `bounds` a parallel list of ints.
    """
    if any(h < l for l, h in zip(lo, hi)):
        return 0
    return sum(top - lo[2] + 1 for _, _, top in _column_tops(rows, bounds, lo, hi))


def collect_violating(rows, bounds, lo, hi):
    """The points counted by count_violating, in lexicographic order."""
    if any(h < l for l, h in zip(lo, hi)):
        return []
    columns = _column_tops(rows, bounds, lo, hi)
    return [(p0, p1, p2) for p0, p1, top in columns for p2 in range(lo[2], top + 1)]


def min_histogram(rows, cap, lo, hi):
    """Counter of min_i rows[i].p over the p in [lo, hi]^3 where that min is <= cap.

    `rows` is a nonempty list of integer 3-vectors with positive last
    entries.  Along a column (p0, p1) the min is then an increasing concave
    piecewise-linear function of p2.  Each piece starts on the line of least
    value, ties to the least slope; it ends where a line of smaller slope
    reaches it, at cap or at hi[2].  So a column has at most one piece per
    row and costs O(rows) per piece.  Past cap the column is done, and when
    no row decreases in p1, a column that starts past cap ends its p0 too.
    Each piece is one `range` of values, and one `Counter` pass in C counts
    them all.
    """
    if not rows or any(a2 <= 0 for _, _, a2 in rows):
        raise ValueError("min_histogram needs rows with a positive last entry")
    pieces = []
    l2, h2 = lo[2], hi[2]
    rising = all(a1 >= 0 for _, a1, _ in rows)
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            # (value at p2 = l2, slope) per row
            lines = [(a0 * p0 + a1 * p1 + a2 * l2, a2) for a0, a1, a2 in rows]
            v, s = min(lines)
            if v > cap:
                if rising:
                    break
                continue
            p2 = l2
            while True:
                # a line of slope r < s is at most v + s*d once d >= ceil(gap / (s - r))
                n = min(h2 - p2 + 1, (cap - v) // s + 1)
                for u, r in lines:
                    if r < s:
                        n = min(n, -(-(u + r * (p2 - l2) - v) // (s - r)))
                pieces.append(range(v, v + s * n, s))
                p2 += n
                if p2 > h2:
                    break
                v, s = min([(u + r * (p2 - l2), r) for u, r in lines])
                if v > cap:
                    break
    return Counter(chain.from_iterable(pieces))


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
