"""Entropy measures against hand values and a direct-summation oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survent import (
    ContingencyTable,
    conditional_entropy,
    conditional_mutual_information,
    ecological_effect,
    interacting_flag,
    marginal_entropies,
    mutual_information,
    sce_drop,
    table_plain,
)
from survent.entropy import _entropies_of_rows, _entropy_of_counts


def oracle_joint_stats(cells: np.ndarray) -> tuple[float, float, float]:
    """Direct summation over the joint distribution: (H[Y|A], I, H[A|Y]).

    Independent of the library path: normalizes the table to a joint pmf
    and sums -p log p terms explicitly.
    """
    p = cells / cells.sum()
    pa = p.sum(axis=1)
    py = p.sum(axis=0)
    h_joint = -sum(v * math.log(v) for v in p.ravel() if v > 0)
    h_a = -sum(v * math.log(v) for v in pa if v > 0)
    h_y = -sum(v * math.log(v) for v in py if v > 0)
    return h_joint - h_a, h_a + h_y - h_joint, h_joint - h_y


def test_conditional_entropy_hand_cases():
    diag = ContingencyTable((1, 2), (1, 2), np.array([[2.0, 0.0], [0.0, 2.0]]))
    ce, per_row = conditional_entropy(diag)
    assert ce == 0.0
    np.testing.assert_allclose(per_row, [0.0, 0.0])
    assert mutual_information(diag) == pytest.approx(math.log(2), abs=1e-12)

    # independence: outer product of the marginals
    outer = np.outer([0.3, 0.7], [0.2, 0.5, 0.3]) * 40
    t = ContingencyTable((1, 2), (1, 2, 3), outer)
    ce, _ = conditional_entropy(t)
    h_col = marginal_entropies(t)[1]
    assert ce == pytest.approx(h_col, abs=1e-12)
    assert mutual_information(t) == pytest.approx(0.0, abs=1e-12)


def test_identity_diagonal_mi():
    t = ContingencyTable(tuple(range(5)), tuple(range(5)), np.eye(5) * 3.0)
    assert mutual_information(t) == pytest.approx(math.log(5), abs=1e-12)


def test_zero_mass_rows_contribute_nothing():
    t = ContingencyTable((1, 2, 3), (1, 2),
                         np.array([[1.0, 1.0], [0.0, 0.0], [3.0, 1.0]]))
    ce, per_row = conditional_entropy(t)
    assert per_row[1] == 0.0
    t2 = ContingencyTable((1, 3), (1, 2), np.array([[1.0, 1.0], [3.0, 1.0]]))
    ce2, _ = conditional_entropy(t2)
    assert ce == pytest.approx(ce2, abs=1e-15)


def test_all_zero_table_errors():
    t = ContingencyTable((1,), (1,), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        conditional_entropy(t)
    with pytest.raises(ValueError):
        mutual_information(t)


def _tables_up_to(total_max: int, shape: tuple[int, int], step_cap: int = None):
    """Exhaustive nonnegative integer tables with 0 < total <= total_max."""
    cells = shape[0] * shape[1]
    for total in range(1, total_max + 1):
        for cuts in itertools.combinations(range(total + cells - 1), cells - 1):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + cells - 2 - prev)
            yield np.array(parts, dtype=float).reshape(shape)


def test_oracle_exhaustive_2x2():
    count = 0
    for cells in _tables_up_to(20, (2, 2)):
        if cells.sum() == 0:
            continue
        t = ContingencyTable((1, 2), (1, 2), cells)
        ce, _ = conditional_entropy(t)
        mi = mutual_information(t)
        o_ce, o_mi, o_cea = oracle_joint_stats(cells)
        assert ce == pytest.approx(o_ce, abs=1e-12)
        assert mi == pytest.approx(max(o_mi, 0.0), abs=1e-12)
        cea, _ = conditional_entropy(t.transpose())
        assert cea == pytest.approx(o_cea, abs=1e-12)
        count += 1
    assert count > 8000


def test_oracle_exhaustive_3x3_small_and_sampled():
    count = 0
    for cells in _tables_up_to(8, (3, 3)):
        t = ContingencyTable((1, 2, 3), (1, 2, 3), cells)
        ce, _ = conditional_entropy(t)
        o_ce, o_mi, _ = oracle_joint_stats(cells)
        assert ce == pytest.approx(o_ce, abs=1e-12)
        assert mutual_information(t) == pytest.approx(max(o_mi, 0.0), abs=1e-12)
        count += 1
    assert count > 10000
    rng = np.random.default_rng(0)
    for _ in range(3000):
        total = int(rng.integers(9, 21))
        flat = rng.multinomial(total, np.full(9, 1 / 9)).astype(float)
        cells = flat.reshape(3, 3)
        t = ContingencyTable((1, 2, 3), (1, 2, 3), cells)
        ce, _ = conditional_entropy(t)
        o_ce, o_mi, _ = oracle_joint_stats(cells)
        assert ce == pytest.approx(o_ce, abs=1e-12)
        assert mutual_information(t) == pytest.approx(max(o_mi, 0.0), abs=1e-12)


@st.composite
def random_tables(draw):
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(2, 5))
    cells = draw(st.lists(st.integers(0, 30), min_size=rows * cols,
                          max_size=rows * cols))
    cells = np.array(cells, dtype=float).reshape(rows, cols)
    if cells.sum() == 0:
        cells[0, 0] = 1.0
    return ContingencyTable(tuple(range(rows)), tuple(range(cols)), cells)


@given(random_tables())
@settings(max_examples=150, deadline=None)
def test_entropy_bounds_property(t):
    ce, per_row = conditional_entropy(t)
    for row, h in zip(t.cells, per_row):
        want = (-sum(v * math.log(v) for v in row / row.sum() if v > 0)
                if row.sum() > 0 else 0.0)
        assert h == pytest.approx(want, abs=1e-12)
    h_row, h_col = marginal_entropies(t)
    assert -1e-12 <= ce <= h_col + 1e-12
    assert h_col <= math.log(len(t.col_labels)) + 1e-12
    # conditioning never increases entropy
    assert ce <= h_col + 1e-12
    # the two drop directions agree: H[Y]-H[Y|A] == H[A]-H[A|Y]
    ce_a, _ = conditional_entropy(t.transpose())
    assert (h_col - ce) == pytest.approx(h_row - ce_a, abs=1e-10)
    assert mutual_information(t) == pytest.approx(h_col - ce, abs=1e-10)


@given(random_tables())
@settings(max_examples=100, deadline=None)
def test_mi_symmetry_property(t):
    assert mutual_information(t) == pytest.approx(
        mutual_information(t.transpose()), abs=1e-10)


@given(random_tables())
@settings(max_examples=80, deadline=None)
def test_coarsening_rows_never_decreases_ce(t):
    if len(t.row_labels) < 3:
        return
    ce_fine, _ = conditional_entropy(t)
    merged = np.vstack([t.cells[0] + t.cells[1], t.cells[2:]])
    tm = ContingencyTable(tuple(range(merged.shape[0])), t.col_labels, merged)
    ce_coarse, _ = conditional_entropy(tm)
    assert ce_coarse >= ce_fine - 1e-10


def test_sce_drop_reference_arithmetic():
    """Worked pair example at a realistic scale: a strongly interacting
    pair whose members are individually inert."""
    value = sce_drop(1.0261, 0.9292, 1.0247, 1.0247)
    assert value == pytest.approx(0.0955, abs=1e-3)
    # a dominant member subsumes the joint reduction entirely
    assert sce_drop(1.0, 0.8, 0.8, 0.95) == pytest.approx(0.0, abs=1e-12)


def test_sce_drop_null_pair_near_zero():
    rng = np.random.default_rng(7)
    drops = []
    for _ in range(200):
        y = rng.integers(1, 4, 400)
        a = rng.integers(1, 4, 400)
        b = rng.integers(1, 4, 400)
        from survent import fuse_categories

        ab, _ = fuse_categories([a, b])
        h_y = marginal_entropies(table_plain(a, y))[1]
        ce_a, _ = conditional_entropy(table_plain(a, y))
        ce_b, _ = conditional_entropy(table_plain(b, y))
        ce_ab, _ = conditional_entropy(table_plain(ab, y))
        drops.append(sce_drop(h_y, ce_ab, ce_a, ce_b))
    # pure noise: successive drop is a small positive bias term, mean ~ cells/2n
    assert 0 < np.mean(drops) < 0.03


def test_ecological_xor_construction():
    # Y = A xor B with independent fair binary A, B
    a = np.array([1, 1, 2, 2])
    b = np.array([1, 2, 1, 2])
    y = np.array([1, 2, 2, 1])
    i_ab = mutual_information(table_plain(a, b))
    assert i_ab == pytest.approx(0.0, abs=1e-12)
    from survent import fuse_categories

    ab, labels = fuse_categories([a, b])
    i_ab_y = conditional_mutual_information(
        table_plain(a, y), table_plain(b, y), table_plain(ab, y))
    assert i_ab_y == pytest.approx(math.log(2), abs=1e-12)
    diff, flag = ecological_effect(i_ab_y, i_ab)
    assert flag and diff == pytest.approx(math.log(2), abs=1e-12)


def test_ecological_duplicate_feature_is_negative():
    rng = np.random.default_rng(1)
    a = rng.integers(1, 4, 500)
    y = ((a + rng.integers(0, 2, 500)) % 3) + 1
    from survent import fuse_categories

    aa, _ = fuse_categories([a, a])
    i_aa = mutual_information(table_plain(a, a))
    i_aa_y = conditional_mutual_information(
        table_plain(a, y), table_plain(a, y), table_plain(aa, y))
    diff, flag = ecological_effect(i_aa_y, i_aa)
    assert not flag and diff < 0


def test_ecological_independent_near_zero():
    rng = np.random.default_rng(2)
    a = rng.integers(1, 3, 4000)
    b = rng.integers(1, 3, 4000)
    y = rng.integers(1, 3, 4000)
    from survent import fuse_categories

    ab, _ = fuse_categories([a, b])
    i_ab = mutual_information(table_plain(a, b))
    i_ab_y = conditional_mutual_information(
        table_plain(a, y), table_plain(b, y), table_plain(ab, y))
    diff, flag = ecological_effect(i_ab_y, i_ab, atol=0.01)
    assert abs(diff) < 0.01
    assert not flag or diff <= 0.01


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_chain_consistency_identity(seed):
    """H[Y]-H[Y|(A,B)] decomposes into both individual drops plus the
    conditional-minus-marginal mutual-information difference."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 200))
    a = rng.integers(1, 4, n)
    b = rng.integers(1, 4, n)
    y = ((a * b + rng.integers(0, 3, n)) % 4) + 1
    from survent import fuse_categories

    ab, _ = fuse_categories([a, b])
    t_a, t_b, t_ab = table_plain(a, y), table_plain(b, y), table_plain(ab, y)
    h_y = marginal_entropies(t_a)[1]
    ce_a, _ = conditional_entropy(t_a)
    ce_b, _ = conditional_entropy(t_b)
    ce_ab, _ = conditional_entropy(t_ab)
    i_ab = mutual_information(table_plain(a, b), clamp=False)
    i_ab_y = conditional_mutual_information(t_a, t_b, t_ab)
    left = h_y - ce_ab
    right = (h_y - ce_a) + (h_y - ce_b) + (i_ab_y - i_ab)
    assert left == pytest.approx(right, abs=1e-10)


def test_interacting_flag_rules():
    assert interacting_flag(0.0106, 0.0026, True)
    assert not interacting_flag(0.0, 0.5, True)
    assert not interacting_flag(0.0106, 0.0026, False)
    assert not interacting_flag(1e9, 1.0, True, factor=math.inf)


@given(st.integers(1, 10**6), st.integers(0, 3))
# the first k at which log k - k log k / k is not exactly 0
@example(6, 2)
@example(22, 0)
@example(23, 1)
@example(26, 3)
@settings(max_examples=200, deadline=None)
def test_point_mass_entropy_is_exactly_zero(k, at):
    """A vector or row with one positive cell has entropy exactly 0, not
    an ulp either side of it; rows with two positive cells are unchanged."""
    assert _entropy_of_counts(np.array([k])) == 0.0
    row = np.zeros(4)
    row[at] = k
    assert _entropy_of_counts(row) == 0.0
    rows = np.vstack([row, np.zeros(4), [k, k, 0.0, 0.0]])
    per_row = _entropies_of_rows(rows)
    assert per_row[0] == 0.0 and per_row[1] == 0.0
    assert per_row[2] == pytest.approx(math.log(2), abs=1e-12)
