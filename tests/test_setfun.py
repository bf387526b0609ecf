from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog import (
    BadDensity,
    SubsetSpec,
    balance,
    field_new,
    indicator,
    l2_norm,
    parse_subset,
    random_subset,
)

# Frozen draw from the pinned generator (PCG64 via np.random.default_rng),
# p = 31, density 0.5, seed 42.  Regenerate with:
#   np.flatnonzero(np.random.default_rng(42).random(31) < 0.5)
GOLDEN_31_HALF_42 = (1, 4, 8, 9, 10, 14, 15, 17, 21, 25, 26, 27, 28)


def test_subset_spec_validates_ordering():
    f = field_new(7)
    with pytest.raises(ValueError):
        SubsetSpec(f, (3, 1))
    with pytest.raises(ValueError):
        SubsetSpec(f, (0, 0, 2))
    with pytest.raises(ValueError):
        SubsetSpec(f, (0, 7))


def test_from_members_sorts_dedupes_reduces():
    f = field_new(11)
    s = SubsetSpec.from_members(f, [5, 2, 5, 9, 2])
    assert s.members == (2, 5, 9)
    assert s.size == 3
    assert s.density == pytest.approx(3 / 11)
    # residues reduce mod p on the way in
    assert SubsetSpec.from_members(f, [11, -1]).members == (0, 10)


def test_full_and_empty():
    f = field_new(5)
    assert SubsetSpec.full(f).members == (0, 1, 2, 3, 4)
    assert SubsetSpec.empty(f).size == 0


def test_random_subset_golden():
    f = field_new(31)
    s = random_subset(f, 0.5, seed=42)
    assert s.members == GOLDEN_31_HALF_42
    # same seed reproduces, next seed differs
    assert random_subset(f, 0.5, seed=42).members == GOLDEN_31_HALF_42
    assert random_subset(f, 0.5, seed=43).members != GOLDEN_31_HALF_42


def test_random_subset_density_limits():
    f = field_new(13)
    assert random_subset(f, 0.0, seed=0).size == 0
    assert random_subset(f, 1.0, seed=0).size == 13
    with pytest.raises(BadDensity):
        random_subset(f, 1.5, seed=0)
    with pytest.raises(BadDensity):
        random_subset(f, -0.1, seed=0)


def test_indicator_values_and_mean():
    f = field_new(7)
    s = SubsetSpec.from_members(f, [0, 3, 5])
    g = indicator(s)
    assert g.values.dtype == np.float64
    assert g.values.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert g.mean() == pytest.approx(3 / 7)


def test_balance_small_example():
    f = field_new(5)
    g = balance(SubsetSpec.from_members(f, [0, 1]))
    assert g.values.tolist() == pytest.approx([0.6, 0.6, -0.4, -0.4, -0.4])
    assert balance(SubsetSpec.full(f)).values.tolist() == [0.0] * 5
    assert balance(SubsetSpec.empty(f)).values.tolist() == [0.0] * 5


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_balance_is_mean_zero(seed):
    f = field_new(101)
    s = random_subset(f, 0.37, seed=seed)
    g = balance(s)
    # alpha is subtracted as one float; the residual mean is pure rounding
    assert abs(g.mean()) < 2.0**-40
    back = g.values + s.size / 101
    assert np.allclose(back, indicator(s).values, atol=1e-12)


def test_l2_norm_of_indicator_is_sqrt_alpha():
    f = field_new(31)
    s = SubsetSpec.from_members(f, range(0, 31, 3))
    alpha = Fraction(s.size, 31)
    assert l2_norm(indicator(s)) == pytest.approx(float(alpha) ** 0.5, rel=1e-12)


def test_l2_squared_is_density_all_sizes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = field_new(p)
        for k in range(p + 1):
            s = SubsetSpec.from_members(f, range(k))
            assert l2_norm(indicator(s)) ** 2 == pytest.approx(k / p, abs=1e-14)


def test_l2_norm_balanced_indicator():
    # ||1_A - alpha||_2^2 = alpha(1 - alpha) exactly
    f = field_new(17)
    s = SubsetSpec.from_members(f, [2, 3, 5, 7, 11, 13])
    alpha = 6 / 17
    g = balance(s)
    assert l2_norm(g) ** 2 == pytest.approx(alpha * (1 - alpha), rel=1e-12)


def test_parse_subset_random_spec():
    f = field_new(31)
    s = parse_subset("random:0.5:42", f)
    assert s.members == GOLDEN_31_HALF_42
    with pytest.raises(ValueError):
        parse_subset("random:0.5", f)
    with pytest.raises(ValueError):
        parse_subset("random:half:1", f)


def test_parse_subset_file(tmp_path):
    f = field_new(13)
    path = tmp_path / "set.txt"
    path.write_text("3\n1\n8\n3\n")
    s = parse_subset(str(path), f)
    assert s.members == (1, 3, 8)
    wrap = tmp_path / "wrap.txt"
    wrap.write_text("13\n-1\n")
    assert parse_subset(str(wrap), f).members == (0, 12)
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nfifteen\n")
    with pytest.raises(ValueError):
        parse_subset(str(bad), f)
    with pytest.raises(ValueError):
        parse_subset(str(tmp_path / "missing.txt"), f)


def test_parse_subset_file_skips_comments(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# residues of A\n3\n\n  # indented note\n8  # trailing note\n1\n")
    assert parse_subset(str(path), field_new(13)).members == (1, 3, 8)
