import random
from collections import Counter
from itertools import product

import pytest

from newtonsing import kernels
from tests.oracles import cap_box, plane_points


def _brute_collect(rows, bounds, lo, hi):
    """Reference oracle: test every point of the box against every row."""
    points = []
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            for p2 in range(lo[2], hi[2] + 1):
                for (a0, a1, a2), m in zip(rows, bounds):
                    if a0 * p0 + a1 * p1 + a2 * p2 < m:
                        points.append((p0, p1, p2))
                        break
    return points


def _brute_plane(normal, value, lo, hi):
    return [
        (p0, p1, p2)
        for p0 in range(lo[0], hi[0] + 1)
        for p1 in range(lo[1], hi[1] + 1)
        for p2 in range(lo[2], hi[2] + 1)
        if normal[0] * p0 + normal[1] * p1 + normal[2] * p2 == value
    ]


def _random_case(rng):
    rows = [tuple(rng.randint(1, 9) for _ in range(3)) for _ in range(rng.randint(1, 4))]
    bounds = [rng.randint(-10, 25) for _ in rows]
    lo = [rng.randint(-2, 3) for _ in range(3)]
    hi = [l + rng.randint(-1, 7) for l in lo]
    return rows, bounds, lo, hi


def test_scan_backends_agree():
    rng = random.Random(31)
    for _ in range(300):
        rows, bounds, lo, hi = _random_case(rng)
        expected = _brute_collect(rows, bounds, lo, hi)
        assert kernels.collect_violating(rows, bounds, lo, hi) == expected
        assert kernels.count_violating(rows, bounds, lo, hi) == len(expected)


def test_scan_falls_back_on_huge_values():
    rows = [(2**70, 1, 1)]
    bounds = [2**71]
    assert kernels.count_violating(rows, bounds, [0, 0, 0], [1, 1, 1]) == 8
    assert kernels.collect_violating(rows, bounds, [0, 0, 0], [1, 1, 1]) == _brute_collect(
        rows, bounds, [0, 0, 0], [1, 1, 1]
    )
    # 2**70 p0 + p1 + p2 < 2**70 + 1 holds for p0 = 0 and for p0 = 1, p1 = p2 = 0
    assert kernels.count_violating(rows, [2**70 + 1], [0, 0, 0], [1, 1, 1]) == 5


def test_empty_box_and_no_rows():
    assert kernels.count_violating([(1, 1, 1)], [5], [0, 0, 0], [-1, 3, 3]) == 0
    assert kernels.collect_violating([(1, 1, 1)], [5], [0, 0, 0], [3, 3, -1]) == []
    assert kernels.collect_violating([], [], [0, 0, 0], [1, 1, 1]) == []
    assert kernels.count_violating([], [], [0, 0, 0], [1, 1, 1]) == 0


def test_scan_rejects_negative_last_entry():
    with pytest.raises(ValueError):
        kernels.count_violating([(1, 1, -1)], [5], [0, 0, 0], [1, 1, 1])


@pytest.mark.parametrize("rows", [[(1, 1, 0)], [(0, 1, 1)], [(2, 2, 2), (1, -1, 3)]])
def test_violating_scans_reject_nonpositive_entries(rows):
    """A zero or negative entry is refused before any column is read, even
    on an empty box."""
    bounds = [5] * len(rows)
    for scan in (kernels.count_violating, kernels.collect_violating):
        for hi in ([1, 1, 1], [-1, 1, 1]):
            with pytest.raises(ValueError):
                scan(rows, bounds, [0, 0, 0], hi)
    with pytest.raises(ValueError):
        kernels.violating_top(rows, bounds)


def test_plane_points_match_brute_force():
    rng = random.Random(53)
    for _ in range(200):
        normal = (rng.randint(-4, 6), rng.randint(-4, 6), rng.choice([-3, -1, 1, 2, 5]))
        value = rng.randint(-10, 30)
        lo = [rng.randint(-2, 3) for _ in range(3)]
        hi = [l + rng.randint(-1, 7) for l in lo]
        assert plane_points(normal, value, lo, hi) == _brute_plane(normal, value, lo, hi)


def _brute_min_histogram(rows, cap, lo):
    """Reference oracle: the min over the rows at every point of the box
    that the cap implies."""
    histogram = Counter()
    for p in product(*(range(l, h + 1) for l, h in zip(lo, cap_box(rows, cap, lo)))):
        m = min(sum(a * x for a, x in zip(row, p)) for row in rows)
        if m <= cap:
            histogram[m] += 1
    return histogram


def _random_min_case(rng):
    rows = [tuple(rng.randint(1, 6) for _ in range(3))]
    while len(rows) < rng.randint(1, 5):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append(rng.choice(rows))  # equal rows
        elif kind == 1:
            slope = rng.choice(rows)[2]  # parallel rows: equal slope in p2
            rows.append((rng.randint(1, 6), rng.randint(1, 6), slope))
        else:
            rows.append(tuple(rng.randint(1, 6) for _ in range(3)))
    lo = [rng.randint(-1, 3) for _ in range(3)]
    return rows, rng.randint(-10, 40), lo


def test_min_histogram_matches_brute_force():
    rng = random.Random(67)
    seen = Counter()
    for _ in range(400):
        rows, cap, lo = _random_min_case(rng)
        expected = _brute_min_histogram(rows, cap, lo)
        assert kernels.min_histogram(rows, cap, lo) == expected, (rows, cap, lo)
        seen[len(rows)] += 1
        seen["negative lo"] += min(lo) < 0
        seen["equal rows"] += len(set(rows)) < len(rows)
        seen["parallel rows"] += len({r[2] for r in rows}) < len(set(rows))
        seen["nothing under cap"] += not expected
    assert all(seen[k] for k in (1, 2, 3, 4, 5, "negative lo", "equal rows", "parallel rows"))
    assert seen["nothing under cap"]


def test_min_histogram_cap_below_every_value():
    rows = [(1, 2, 3), (3, 1, 1), (3, 1, 1)]
    lo = [-2, 0, 1]
    least = min(sum(a * l for a, l in zip(row, lo)) for row in rows)
    assert kernels.min_histogram(rows, least + 12, lo) == _brute_min_histogram(rows, least + 12, lo)
    assert kernels.min_histogram(rows, least, lo) == Counter({least: 1})
    assert kernels.min_histogram(rows, least - 1, lo) == Counter()


@pytest.mark.parametrize("rows", [[(1, 1, 0)], [(1, 1, 1), (2, 0, -1)], [], [(0, 2, 1)], [(1, 1, 1), (1, -1, 1)]])
def test_min_histogram_rejects_nonpositive_last_entry(rows):
    with pytest.raises(ValueError):
        kernels.min_histogram(rows, 5, [0, 0, 0])


def _random_form_case(rng):
    row = tuple(rng.randint(1, 6) for _ in range(3))
    lo = [rng.choice((0, 1, rng.randint(-2, -1))) for _ in range(3)]
    return row, rng.randint(-20, 40), lo


def test_form_histogram_matches_brute_force():
    """The one-row kernel equals the brute-force scan and `min_histogram` on
    random positive rows, keyed by the values that occur only."""
    rng = random.Random(71)
    seen = Counter()
    for _ in range(800):
        row, cap, lo = _random_form_case(rng)
        histogram = kernels.form_histogram(row, cap, lo)
        expected = _brute_min_histogram([row], cap, lo)
        assert histogram == expected == kernels.min_histogram([row], cap, lo), (row, cap, lo)
        assert all(histogram.values())
        seen["lo", 0] += 0 in lo
        seen["lo", 1] += 1 in lo
        seen["lo", "negative"] += min(lo) < 0
        seen["cap below every value"] += cap < sum(a * l for a, l in zip(row, lo))
        seen["gaps"] += bool(histogram) and len(histogram) <= max(histogram) - min(histogram)
    assert seen["lo", 0] and seen["lo", 1] and seen["lo", "negative"], seen
    assert seen["cap below every value"] and seen["gaps"], seen


def test_form_histogram_far_past_the_brute_force_reach():
    # x^2 + y^3 + z^5 at weight <= 100: 5.1 million points
    row, cap = (15, 10, 6), 3000
    histogram = kernels.form_histogram(row, cap, [0, 0, 0])
    assert sum(histogram.values()) == sum(
        (cap - 15 * p0 - 10 * p1) // 6 + 1
        for p0 in range(cap // 15 + 1)
        for p1 in range((cap - 15 * p0) // 10 + 1)
    )
    # weight 1: x^2, y^3 and z^5
    assert histogram[0] == 1 and histogram[30] == 3 and max(histogram) == cap


@pytest.mark.parametrize("row", [(1, 0, 2), (1, 1, -1), (0, 0, 0)])
def test_form_histogram_rejects_nonpositive_entries(row):
    with pytest.raises(ValueError):
        kernels.form_histogram(row, 5, [0, 0, 0])
