"""Observation patterns over the group space [p_1] x ... x [p_q].

A pattern declares which group combinations carry samples, structured as

* a body: the product of per-mode level subsets Omega_t;
* one arm per mode t: a product of subsets S_k over the other modes,
  crossed with every level of mode t.

Groups are plain tuples of 1-based ints. Group modes are labelled 1..q to
match tensor modes (mode 0 is the coefficient axis and has no pattern
structure). The observed set is the union of the body, the arms and any
extra groups declared explicitly.
"""

import itertools
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DimensionError


@dataclass(frozen=True)
class ObservationPattern:
    space: tuple
    body: tuple              # per mode t=1..q, sorted level subset Omega_t
    arm_subsets: tuple       # arm t -> subsets S_k for the modes k != t, ascending k
    extra: tuple = field(default=())

    @property
    def q(self):
        return len(self.space)

    @cached_property
    def observed(self):
        obs = set(self.body_groups())
        for t in range(1, self.q + 1):
            obs.update(self.arm_groups(t))
        obs.update(self.extra)
        return frozenset(obs)

    def observed_list(self):
        return sorted(self.observed)

    def unobserved_list(self):
        full = itertools.product(*(range(1, p + 1) for p in self.space))
        return [g for g in full if g not in self.observed]

    def body_groups(self):
        return [g for g in itertools.product(*self.body)]

    def arm_tuples(self, t):
        """The (q-1)-tuples A_t for arm t, sorted."""
        return sorted(itertools.product(*self.arm_subsets[t - 1]))

    def cset_tuples(self, t):
        """The (q-1)-tuples of C_t = Omega_{-t} union A_t, sorted."""
        body_rest = set(itertools.product(
            *(levels for k, levels in enumerate(self.body, start=1) if k != t)))
        return sorted(body_rest | set(self.arm_tuples(t)))

    def arm_groups(self, t):
        """Arm t crossed with every mode-t level."""
        return [_insert(rest, t, lev) for rest in self.arm_tuples(t)
                for lev in range(1, self.space[t - 1] + 1)]


def group_key(group):
    """``group`` as a tuple of ints. A level that is not an integer raises
    DimensionError naming the group, so no level is truncated."""
    group = tuple(group)
    return _integers(group, f"group {group}: levels", group)


def _integers(values, what, where=None):
    """``values`` as a tuple of ints, never truncated: a value that is not
    an integer number raises DimensionError "{what} must be integers"
    (``where`` is the key of what it names). A string or a bool is not a
    number, though float() takes "300" and int() takes True."""
    if not all(isinstance(i, numbers.Real) and not isinstance(i, bool)
               and float(i).is_integer() for i in values):
        raise DimensionError(f"{what} must be integers", where=where)
    return tuple(int(i) for i in values)


def _is_integer_text(text):
    """Whether the string ``text`` spells an integer as np.loadtxt's
    integer parser reads one: ASCII digits after an optional sign, with
    blanks around them. So "01", "+2" and " 4 " do; "1_0" and "\u0663"
    (which int() reads as 10 and 3) and "1.0" do not."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    return digits.isascii() and digits.isdigit()


def _index(value, name, what):
    """``value`` as a non-negative int, never truncated: a replication
    index or a seed, with errors naming it as ``name``. A value that is
    not an integer number raises DimensionError "{name} = 1.5: {what}
    must be integers", a negative one ValueError "{name} = -1: need
    {name} >= 0"."""
    value, = _integers((value,), f"{name} = {value!r}: {what}", name)
    if value < 0:
        raise ValueError(f"{name} = {value}: need {name} >= 0")
    return value


def _insert(rest, t, level):
    """Build a full group from a (q-1)-tuple by inserting a mode-t level."""
    return rest[:t - 1] + (level,) + rest[t - 1:]


def build_pattern(space, body, arm_subsets, extra=()):
    """Validate and assemble an ObservationPattern.

    ``body`` gives Omega_t per mode; ``arm_subsets[t-1]`` gives the q-1
    subsets S_k (k != t, ascending) that generate arm t.
    """
    space = _integers(space, f"group space {tuple(space)}: sizes", "space")
    q = len(space)
    if q < 1 or any(p < 1 for p in space):
        raise ValueError(f"invalid group space {space}")
    if len(body) != q:
        raise ValueError(f"expected {q} body subsets, got {len(body)}")
    if len(arm_subsets) != q:
        raise ValueError(f"expected {q} arms, got {len(arm_subsets)}")

    body_norm = []
    for t, levels in enumerate(body, start=1):
        body_norm.append(_check_levels(levels, space[t - 1], f"body mode {t}"))
    arms_norm = []
    for t, subsets in enumerate(arm_subsets, start=1):
        others = [k for k in range(1, q + 1) if k != t]
        if len(subsets) != q - 1:
            raise ValueError(
                f"arm {t}: expected {q - 1} generating subsets, "
                f"got {len(subsets)}")
        arms_norm.append(tuple(
            _check_levels(levels, space[k - 1], f"arm {t} subset for mode {k}")
            for k, levels in zip(others, subsets)))

    extra_norm = []
    for g in extra:
        g = group_key(g)
        if len(g) != q or any(not 1 <= i <= p for i, p in zip(g, space)):
            raise ValueError(f"extra group {g} outside the space {space}")
        extra_norm.append(g)

    return ObservationPattern(space, tuple(body_norm), tuple(arms_norm),
                              tuple(sorted(set(extra_norm))))


def _check_levels(levels, p, what):
    levels = sorted(set(_integers(levels, f"{what}: levels", what)))
    if not levels:
        raise ValueError(f"{what}: empty level subset")
    if levels[0] < 1 or levels[-1] > p:
        raise ValueError(f"{what}: levels {levels} outside 1..{p}")
    return tuple(levels)


def pattern_to_config(pattern):
    cfg = {
        "space": list(pattern.space),
        "body": [list(levels) for levels in pattern.body],
        "arms": [{"S": [list(s) for s in subsets]}
                 for subsets in pattern.arm_subsets],
    }
    if pattern.extra:
        cfg["extra"] = [list(g) for g in pattern.extra]
    return cfg


def pattern_from_config(cfg):
    return build_pattern(cfg["space"], cfg["body"],
                         [arm["S"] for arm in cfg["arms"]],
                         cfg.get("extra", ()))


def save_pattern(pattern, path):
    with open(path, "w") as fh:
        json.dump(pattern_to_config(pattern), fh, indent=2)
        fh.write("\n")


def load_pattern(path):
    with open(path) as fh:
        return pattern_from_config(json.load(fh))
