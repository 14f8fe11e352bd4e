"""Observation patterns: block enumeration, membership, JSON round trip."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordg import (DimensionError, build_pattern, pattern_from_config,
                      pattern_to_config)
from tensordg.patterns import _is_integer_text


def default_pattern(p=8, w=5, a=5):
    """The symmetric q=2 layout: body {1..w}^2, arms over {1..a}."""
    return build_pattern((p, p), body=[range(1, w + 1), range(1, w + 1)],
                         arm_subsets=[[range(1, a + 1)], [range(1, a + 1)]])


def test_default_design_counts():
    pat = default_pattern()
    assert len(pat.observed) == 55
    assert len(pat.unobserved_list()) == 9
    assert pat.unobserved_list() == [
        (i, j) for i in (6, 7, 8) for j in (6, 7, 8)]
    assert len(pat.body_groups()) == 25
    for t in (1, 2):
        assert len(pat.arm_groups(t)) == 40
        assert len(pat.cset_tuples(t)) == 5


def test_membership_examples():
    pat = default_pattern()
    assert (3, 3) in pat.observed
    assert (8, 3) in pat.observed   # arm 1 reaches every level of mode 1
    assert (3, 8) in pat.observed
    assert (6, 6) not in pat.observed
    assert (8, 8) not in pat.observed


def test_cset_unions_body_and_arm():
    # body wider than the arm: C_t gains the extra body levels
    pat = build_pattern((8, 8), body=[range(1, 7), range(1, 7)],
                        arm_subsets=[[range(1, 6)], [range(1, 6)]])
    assert pat.cset_tuples(1) == [(i,) for i in range(1, 7)]


def test_single_mode_space_arm_is_everything():
    pat = build_pattern((7,), body=[(2, 3)], arm_subsets=[[]])
    assert pat.arm_tuples(1) == [()]
    assert sorted(pat.observed) == [(i,) for i in range(1, 8)]
    assert pat.arm_groups(1) == [(i,) for i in range(1, 8)]
    assert pat.cset_tuples(1) == [()]


def test_extra_groups_are_observed():
    pat = build_pattern((4, 4), body=[(1, 2), (1, 2)],
                        arm_subsets=[[(1,)], [(1,)]], extra=[(4, 4)])
    assert (4, 4) in pat.observed
    # extras do not join the declared blocks
    assert (4, 4) not in pat.arm_groups(1)
    assert (4, 4) not in pat.body_groups()


def test_enumeration_is_sorted_and_deterministic():
    pat, again = default_pattern(), default_pattern()
    for block in (pat.body_groups(), pat.observed_list(), pat.arm_tuples(1),
                  pat.cset_tuples(2), pat.unobserved_list()):
        assert block == sorted(block)
    for t in (1, 2):
        assert pat.arm_groups(t) == again.arm_groups(t)


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        build_pattern((4, 4), body=[(), (1,)], arm_subsets=[[(1,)], [(1,)]])
    with pytest.raises(ValueError, match="outside"):
        build_pattern((4, 4), body=[(1, 5), (1,)], arm_subsets=[[(1,)], [(1,)]])
    with pytest.raises(ValueError, match="generating subsets"):
        build_pattern((4, 4), body=[(1,), (1,)], arm_subsets=[[], [(1,)]])
    with pytest.raises(ValueError, match="outside"):
        build_pattern((4, 4), body=[(1,), (1,)],
                      arm_subsets=[[(1,)], [(1,)]], extra=[(5, 1)])


def test_non_integral_levels_are_rejected_not_truncated():
    """3.5 would otherwise become level 3, a pattern the caller did not
    declare; the error names the body mode or arm subset."""
    with pytest.raises(DimensionError,
                       match="body mode 1: levels must be integers") as err:
        build_pattern((5, 5), [(1, 2, 3.5), (1, 2, 3)], [[(1, 2)], [(1, 2)]])
    assert err.value.where == "body mode 1"
    with pytest.raises(DimensionError, match="arm 2 subset for mode 1: "
                                             "levels must be integers"):
        build_pattern((5, 5), [(1, 2), (1, 2)], [[(1, 2)], [(1, 2.5)]])
    pat = build_pattern((5, 5), [(1, 2, 3.0), (1, 2)], [[(1.0, 2)], [(1, 2)]])
    assert pat.body == ((1, 2, 3), (1, 2))
    assert pat.arm_subsets == (((1, 2),), ((1, 2),))


def test_non_integral_space_is_rejected_not_truncated():
    """A group space of 5.5 levels would otherwise become 5."""
    with pytest.raises(DimensionError, match=re.escape(
            "group space (5.5, 5): sizes must be integers")) as err:
        build_pattern((5.5, 5), [(1, 2), (1, 2)], [[(1, 2)], [(1, 2)]])
    assert err.value.where == "space"
    pat = build_pattern([5.0, 5], [(1, 2), (1, 2)], [[(1, 2)], [(1, 2)]])
    assert pat.space == (5, 5) and all(type(d) is int for d in pat.space)


subset_st = st.sets(st.integers(1, 4), min_size=1, max_size=4)


@given(q=st.integers(1, 3), data=st.data())
@settings(max_examples=50, deadline=None)
def test_observed_equals_brute_force_union(q, data):
    space = tuple(data.draw(st.integers(2, 4)) for _ in range(q))
    body = [sorted(data.draw(subset_st) & set(range(1, p + 1)) or {1})
            for p in space]
    arms = []
    for t in range(1, q + 1):
        subs = []
        for k in range(1, q + 1):
            if k == t:
                continue
            levels = data.draw(subset_st) & set(range(1, space[k - 1] + 1))
            subs.append(sorted(levels or {1}))
        arms.append(subs)
    pat = build_pattern(space, body, arms)

    expected = set(itertools.product(*body))
    for t in range(1, q + 1):
        for rest in itertools.product(*pat.arm_subsets[t - 1]):
            for lev in range(1, space[t - 1] + 1):
                expected.add(rest[:t - 1] + (lev,) + rest[t - 1:])
    assert pat.observed == expected
    full = set(itertools.product(*(range(1, p + 1) for p in space)))
    assert set(pat.unobserved_list()) == full - expected


def test_json_roundtrip():
    pat = build_pattern((8, 6), body=[(1, 3, 5), (2, 4)],
                        arm_subsets=[[(2, 4)], [(1, 3, 5)]], extra=[(8, 6)])
    cfg = pattern_to_config(pat)
    assert cfg["space"] == [8, 6]
    assert cfg["arms"][0]["S"] == [[2, 4]]
    back = pattern_from_config(cfg)
    assert back == pat
    assert back.observed == pat.observed


@pytest.mark.parametrize("text, integer", [
    ("01", True), ("+2", True), ("-3", True), (" 4 ", True), ("\t7", True),
    ("1_0", False), ("\u0663", False), ("1.0", False), ("", False),
    (" ", False), ("+", False), ("+ 3", False), ("1e3", False),
    ("0x1", False), ("\u00b2", False),
])
def test_integer_text_is_what_numpy_reads_as_an_integer(text, integer):
    """_is_integer_text agrees with np.loadtxt's integer parser, unlike
    int(), which reads "1_0" as 10 and "\u0663" as 3."""
    assert _is_integer_text(text) is integer
    try:
        np.loadtxt([text + ",0"], delimiter=",", dtype=np.int64,
                   usecols=[0], comments=None)
        parsed = True
    except ValueError:
        parsed = False
    assert parsed is integer
