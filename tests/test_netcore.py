import itertools
import json
import math
import random

import numpy as np
import pytest

from emanet.netcore import (
    ALL10,
    MAX_EXACT_MOMENT,
    NEGATIVE_ONLY,
    POSITIVE_ONLY,
    CorrelationNetwork,
    InsufficientData,
    correlation_matrix,
    export_network,
    network_to_dot,
    network_to_json,
    pearson_network,
    upper_triangle_sum,
)


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return 0.0
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / math.sqrt(sxx * syy)


def vectors(columns):
    """(n_days x 10) scores from per-item columns, padding unused items with zeros."""
    n = len(columns[0])
    return np.array([[columns[j][i] if j < len(columns) else 0 for j in range(10)] for i in range(n)])


def random_days(rng, n):
    """n days of 10 uniform scores 0-3 from a random.Random."""
    return np.array([[rng.randrange(4) for _ in range(10)] for _ in range(n)])


# Node labels of ALL10, in column order.
LABELS = ("CAL", "SOC", "SLE", "THI", "HOP", "DEP", "STR", "VOI", "SEE", "HAR")


class TestPearsonNetwork:
    def test_identical_sequences_correlate_one(self):
        days = vectors([[0, 1, 2, 3], [0, 1, 2, 3]])
        net = pearson_network(days, (0, 1))
        assert net.matrix[0, 1] == pytest.approx(1.0)
        assert net.n_samples == 4

    def test_constant_item_zero_by_convention(self):
        days = vectors([[2, 2, 2, 2], [0, 1, 2, 3]])
        net = pearson_network(days, (0, 1))
        assert net.matrix[0, 1] == 0.0
        assert net.matrix[0, 0] == 1.0

    def test_derived_pairs_against_formula(self):
        for a, b in [([0, 1, 2, 3], [3, 2, 1, 0]), ([0, 3, 0, 3], [0, 0, 3, 3])]:
            net = pearson_network(vectors([a, b]), (0, 1))
            assert net.matrix[0, 1] == pytest.approx(naive_pearson(a, b), abs=1e-12)
        assert pearson_network(vectors([[0, 1, 2, 3], [3, 2, 1, 0]]), (0, 1)).matrix[0, 1] == pytest.approx(-1.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            pearson_network(vectors([[1], [2]]), (0, 1))

    def test_subsets_resolve_indices(self):
        assert ALL10 == tuple(range(10))
        assert POSITIVE_ONLY == (0, 1, 2, 3, 4)
        assert NEGATIVE_ONLY == (5, 6, 7, 8, 9)
        days = random_days(random.Random(3), 4)
        assert pearson_network(days, ALL10).items == LABELS
        assert pearson_network(days, POSITIVE_ONLY).items == ("CAL", "SOC", "SLE", "THI", "HOP")
        assert pearson_network(days, NEGATIVE_ONLY).items == ("DEP", "STR", "VOI", "SEE", "HAR")

    def test_order_invariance(self):
        rng = random.Random(5)
        days = random_days(rng, 12)
        order = list(range(12))
        rng.shuffle(order)
        shuffled = days[order]
        a = pearson_network(days, ALL10)
        b = pearson_network(shuffled, ALL10)
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_affine_invariance_on_raw_rows(self):
        # Raw integer rows allow out-of-range values.
        rng = random.Random(9)
        rows = np.array([[rng.randrange(4) for _ in range(3)] for _ in range(10)])
        items = (0, 1, 2)
        base = pearson_network(rows, items)
        shifted = pearson_network(rows + [7, 0, 0], items)
        scaled = pearson_network(rows * [3, 1, 1], items)
        negated = pearson_network(rows * [-1, 1, 1], items)
        assert np.allclose(base.matrix, shifted.matrix, atol=1e-12)
        assert np.allclose(base.matrix, scaled.matrix, atol=1e-12)
        expected = base.matrix.copy()
        expected[0, 1:] *= -1
        expected[1:, 0] *= -1
        assert np.allclose(negated.matrix, expected, atol=1e-12)

    def test_random_samples_match_two_pass_formula(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(3, 12)
            days = random_days(rng, n)
            net = pearson_network(days, ALL10)
            cols = days.T.tolist()
            for i, j in itertools.combinations(range(10), 2):
                assert net.matrix[i, j] == pytest.approx(naive_pearson(cols[i], cols[j]), abs=1e-12)

    def test_matrix_invariants(self):
        rng = random.Random(77)
        days = random_days(rng, 25)
        net = pearson_network(days, ALL10)
        assert np.allclose(net.matrix, net.matrix.T)
        assert np.all(np.diag(net.matrix) == 1.0)
        assert np.all(np.abs(net.matrix) <= 1.0)


def python_network(rows):
    """Pair correlations and connectivity from Python-int moments, math.sqrt
    and a left-to-right sum, pairs in np.triu_indices order: no numpy, no BLAS."""
    n, cols = len(rows), list(zip(*rows))

    def comoment(i, j):
        return n * sum(a * b for a, b in zip(cols[i], cols[j])) - sum(cols[i]) * sum(cols[j])

    pairs, total = {}, 0.0
    for i, j in itertools.combinations(range(len(cols)), 2):
        var_i, var_j = comoment(i, i), comoment(j, j)
        r = 0.0 if var_i == 0 or var_j == 0 else max(-1.0, min(1.0, comoment(i, j) / math.sqrt(var_i * var_j)))
        pairs[i, j] = r
        total += r
    return pairs, total


class TestKernel:
    def test_exactly_equal_to_python_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            n, k, top = rng.randrange(2, 40), rng.choice((2, 5, 10)), rng.choice((1, 3, 3, 1000))
            stack = []
            for _ in range(3):
                rows = [[rng.randint(0, top) for _ in range(k)] for _ in range(n)]
                for row in rows:  # a column at the scale floor, often constant
                    row[0] = 0 if rng.random() < 0.9 else row[0]
                stack.append(rows)
            batched = upper_triangle_sum(correlation_matrix(np.asarray(stack)))
            for rows, conn in zip(stack, batched):
                pairs, total = python_network(rows)
                matrix = correlation_matrix(np.asarray(rows))
                assert all(matrix[i, j] == matrix[j, i] == r for (i, j), r in pairs.items())
                assert upper_triangle_sum(matrix) == conn == total

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_exact_at_the_moment_limit(self, n):
        top = 2 ** 26 // n  # n²·top² == MAX_EXACT_MOMENT: the largest scores the kernel accepts
        assert n * n * top * top == MAX_EXACT_MOMENT
        rng = random.Random(n)
        stack = []
        for _ in range(4):
            columns = [
                [rng.choice((-top, top)) for _ in range(n)],
                [top] * (n - 1) + [-top],
                [-top] * n,
                [rng.randint(-top, top) for _ in range(n)],
                [rng.choice((0, top)) for _ in range(n)],
            ]
            stack.append([list(row) for row in zip(*columns)])
        batched = upper_triangle_sum(correlation_matrix(np.asarray(stack, dtype=np.int64)))
        for rows, conn in zip(stack, batched):
            pairs, total = python_network(rows)
            matrix = correlation_matrix(np.asarray(rows, dtype=np.int64))
            assert all(matrix[i, j] == matrix[j, i] == r for (i, j), r in pairs.items())
            assert upper_triangle_sum(matrix) == conn == total

    def test_perfect_and_constant_columns_are_exact(self):
        t = [0, 1, 2, 3, 1, 2, 0]
        rows = [[v, 3 - v, 2 * v + 1, 2] for v in t]
        m = correlation_matrix(np.asarray(rows))
        assert m[0, 1] == m[1, 2] == -1.0
        assert m[0, 2] == 1.0
        assert m[0, 3] == m[1, 3] == m[2, 3] == 0.0
        assert np.all(np.diag(m) == 1.0)
        assert upper_triangle_sum(correlation_matrix(np.asarray([rows])))[0] == -1.0

    def test_row_order_does_not_change_a_bit(self):
        """Co-moments are exact integers, so permuting each slice's days leaves its
        matrix bit for bit: run_paired hands samples to the kernel unsorted."""
        rng = np.random.default_rng(43)
        for n in (2, 3, 5, 25, 26, 150, 1500):
            stack = rng.integers(0, 4, size=(6, n, 10))
            stack[:, :, 2] = 1  # constant in every slice
            stack[0, :, 7] = 0
            stack[1, :, 1:] = 3  # one varying column only
            order = np.argsort(rng.random((6, n)), axis=1)
            shuffled = np.take_along_axis(stack, order[..., None], axis=1)
            assert np.array_equal(correlation_matrix(shuffled).view(np.int64), correlation_matrix(stack).view(np.int64))

    def test_non_integer_input_raises(self):
        floats = np.asarray([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="integer"):
            correlation_matrix(floats)
        with pytest.raises(ValueError, match="integer"):
            upper_triangle_sum(correlation_matrix(floats[None]))
        with pytest.raises(ValueError, match="integer"):
            pearson_network(np.array([[0.5] * 10, [1.5] * 10, [2.5] * 10]), (0, 1))

    def test_moments_too_large_raise(self):
        with pytest.raises(ValueError, match="exact"):
            correlation_matrix(np.asarray([[0, 1], [1, 0], [2**25, 2]]))


def network_with(offdiag, k=10):
    m = np.full((k, k), float(offdiag))
    np.fill_diagonal(m, 1.0)
    return CorrelationNetwork(items=LABELS[:k], matrix=m, n_samples=25)


def difference(a, b):
    """Connectivity of network a minus that of b, from one two-matrix stack as run_paired sums it."""
    conn = upper_triangle_sum(np.stack([a.matrix, b.matrix]))
    return conn[0] - conn[1]


class TestConnectivity:
    def test_all_zero_offdiagonal(self):
        assert upper_triangle_sum(network_with(0.0).matrix) == 0.0

    def test_all_ones(self):
        assert upper_triangle_sum(network_with(1.0).matrix) == pytest.approx(45.0)

    def test_fewer_than_two_items_sum_to_zero(self):
        assert upper_triangle_sum(np.zeros((0, 0))) == 0.0
        one = upper_triangle_sum(np.ones((1, 1)))
        assert type(one) is float and one == 0.0
        stack = upper_triangle_sum(np.ones((3, 1, 1)))
        assert stack.shape == (3,) and not stack.any()

    def test_two_summation_orders_agree(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1, 1, size=(5, 5))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        direct = sum(m[i, j] for i in range(5) for j in range(i + 1, 5))
        halved = (m.sum() - np.trace(m)) / 2.0
        assert upper_triangle_sum(m) == pytest.approx(direct, abs=1e-12)
        assert upper_triangle_sum(m) == pytest.approx(halved, abs=1e-12)

    def test_difference_antisymmetry(self):
        a = network_with(0.4)
        b = network_with(-0.2)
        assert difference(a, b) == pytest.approx(-difference(b, a))
        assert difference(a, a) == 0.0

    def test_all_ones_minus_zeros(self):
        assert difference(network_with(1.0), network_with(0.0)) == pytest.approx(45.0)


class TestExport:
    def test_single_edge_dot(self):
        m = np.eye(10)
        i, j = 0, 4  # CAL, HOP
        m[i, j] = m[j, i] = 0.8
        net = CorrelationNetwork(items=LABELS, matrix=m, n_samples=30)
        dot = network_to_dot(net)
        assert "CAL -- HOP [penwidth=4.2, color=blue];" in dot
        assert dot.count(" -- ") == 1

    def test_negative_edge_is_red(self):
        m = np.eye(10)
        m[5, 6] = m[6, 5] = -0.5
        net = CorrelationNetwork(items=LABELS, matrix=m, n_samples=30)
        assert "DEP -- STR [penwidth=3, color=red];" in network_to_dot(net)

    def test_all_zero_network_has_isolated_nodes(self):
        net = network_with(0.0)
        dot = network_to_dot(net)
        assert " -- " not in dot
        for label in LABELS:
            assert f"  {label};" in dot

    def test_threshold_hides_weak_edges(self):
        m = np.eye(10)
        m[0, 1] = m[1, 0] = 0.05
        net = CorrelationNetwork(items=LABELS, matrix=m, n_samples=30)
        assert " -- " not in network_to_dot(net)

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(-1, 1, size=(10, 10))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        net = CorrelationNetwork(items=LABELS, matrix=m, n_samples=42)
        back = json.loads(network_to_json(net))
        assert tuple(back["items"]) == net.items
        assert back["n_samples"] == 42
        assert np.array_equal(np.asarray(back["matrix"]), net.matrix)

    def test_export_dispatch(self):
        net = network_with(0.0)
        assert export_network(net, "json").startswith("{")
        assert export_network(net, "dot").startswith("graph")
        with pytest.raises(ValueError):
            export_network(net, "svg")
