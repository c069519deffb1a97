"""Lattice box scans and the Laufer completion loop.

The scans walk the columns (p0, p1) of the box.  When every row has a
nonnegative last entry, the p2 with rows[i].p < bounds[i] for some i form a
prefix of each column, so a scan costs box^2 * rows plus its output rather
than box^3 * rows.  `min_histogram` counts min_i rows[i].p at each point
on the first row attaining it; that row's points on a column are one
interval of p2, counted as one arithmetic progression.  `form_histogram`
counts the values of one positive row without visiting a point: its
histogram is the truncated product of the geometric series of each
coordinate, three stride passes over one list of counts.  Arithmetic is on
Python integers, hence exact.
"""

from collections import Counter
from itertools import accumulate, chain, compress
from operator import sub


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


def _span(a, c, lo, hi):
    """The x in [lo, hi] with a * x <= c, as a range."""
    if a > 0:
        return range(lo, min(hi, c // a) + 1)
    if a < 0:
        return range(max(lo, -(c // -a)), hi + 1)
    return range(lo, hi + 1) if c >= 0 else range(0)


def min_histogram(rows, cap, lo, hi):
    """Counter of min_i rows[i].p over the p in [lo, hi]^3 where that min is <= cap.

    `rows` is a nonempty list of integer 3-vectors with positive last
    entries.  Each p is counted on the first row i attaining the min, that
    is where (a2 - b2) p2 <= (b0 - a0) p0 + (b1 - a1) p1 - [j < i] for every
    other row j = (b0, b1, b2) (a = rows[i]).  On a column (p0, p1) these
    are floor bounds (a2 > b2), ceiling bounds (a2 < b2) or all-or-nothing
    tests (a2 = b2) on p2, so row i owns one interval of the column and its
    values up to cap are one `range` of step a2.  The cap also bounds p0
    and p1 per row.  One `Counter` pass in C counts all the ranges.
    """
    if not rows or any(a2 <= 0 for _, _, a2 in rows):
        raise ValueError("min_histogram needs rows with a positive last entry")
    ranges = []
    (l0, l1, l2), (h0, h1, h2) = lo, hi
    for i, (a0, a1, a2) in enumerate(rows):
        others = [(a2 - b2, b0 - a0, b1 - a1, j < i) for j, (b0, b1, b2) in enumerate(rows) if j != i]
        for p0 in _span(a0, cap - a2 * l2 - min(a1 * l1, a1 * h1), l0, h0):
            terms = [(d, c0 * p0 - t, c1) for d, c0, c1, t in others]
            for p1 in _span(a1, cap - a2 * l2 - a0 * p0, l1, h1):
                bottom, top = l2, h2
                for d, r, c1 in terms:
                    r += c1 * p1
                    if d > 0:
                        top = min(top, r // d)
                    elif d < 0:
                        bottom = max(bottom, -(r // -d))
                    elif r < 0:
                        top = bottom - 1
                u = a0 * p0 + a1 * p1
                values = range(u + a2 * bottom, min(cap, u + a2 * top) + 1, a2)
                if values:
                    ranges.append(values)
    return Counter(chain.from_iterable(ranges))


def form_histogram(row, cap, lo, hi):
    """Counter of row.p over the p in [lo, hi]^3 where row.p <= cap, for a
    row of positive entries.

    The values are row.lo + k, and the count at k is the coefficient of t^k
    in the product over c of 1 + t^a + ... + t^(m a), with a = row[c] and
    m = hi[c] - lo[c]; it is truncated at top = min(cap, row.hi) - row.lo,
    which is exact, as no factor lowers a degree.  A factor is
    (1 - t^((m + 1) a)) / (1 - t^a): a prefix sum with stride a, then the
    prefix shifted by (m + 1) a subtracted.  The cost is O(3 * top), not the
    box's points.
    """
    if any(a <= 0 for a in row):
        raise ValueError("form_histogram needs a row of positive entries")
    if any(h < l for l, h in zip(lo, hi)):
        return Counter()
    shift = sum(a * l for a, l in zip(row, lo))
    top = min(cap, sum(a * h for a, h in zip(row, hi))) - shift
    if top < 0:
        return Counter()
    counts = [1] + [0] * top
    for a, l, h in zip(row, lo, hi):
        for r in range(min(a, top + 1)):
            counts[r::a] = accumulate(counts[r::a])
        cut = (h - l + 1) * a
        if cut <= top:
            counts[cut:] = map(sub, counts[cut:], counts[: top + 1 - cut])
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
