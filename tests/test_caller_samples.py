"""Every public entry that takes a caller's (X, y) sample rejects a bad one
before it solves anything, with an error that names the sample."""

import functools

import numpy as np
import pytest

from tensordg import (DimensionError, GroupedDataset, NonFiniteError,
                      ScenarioConfig, cross_validate_lambda, fit_all,
                      fit_tensordg, lasso_kkt, lasso_offset, make_scenario,
                      meta_lm_star, ols_fit, ols_fits, projected_fits,
                      regression, transfer)


@functools.cache
def setting():
    """A small fitted scenario and one unobserved target's sample."""
    sc = make_scenario(ScenarioConfig(
        p=6, group_dims=(4, 4), ranks=(2, 2, 2), body_sizes=(3, 3),
        arm_sizes=(2, 2), n=30, n_target=30), 0)
    est = fit_all(sc.train, sc.pattern)
    model = fit_tensordg(sc.train, sc.pattern)
    g_star = sc.pattern.unobserved_list()[0]
    return dict(est=est, pattern=sc.pattern, model=model, g_star=g_star,
                basis=model.bases[0],
                offset=model.coefficient(g_star), good=sc.targets[g_star])


# entry name -> (call on the sample (X, y), where for a bad shape, where
# for a non-finite X, where for a non-finite y); the bad sample comes
# after a good one where the entry takes several
ENTRIES = {
    "GroupedDataset": (
        lambda s, X, y: GroupedDataset({(1, 1): s["good"], (1, 2): (X, y)}),
        (1, 2), (1, 2), (1, 2)),
    "ols_fit": (lambda s, X, y: ols_fit(X, y), None, None, None),
    "ols_fits": (lambda s, X, y: ols_fits([s["good"], (X, y)], ["a", "b"]),
                 "b", "b", "b"),
    # projected OLS of one unnamed target on a given basis: the call
    # meta_lm_star makes after its mode-0 step
    "projected_ols": (
        lambda s, X, y: projected_fits(s["basis"], {None: (X, y)})[None],
        None, None, None),
    "projected_fits": (
        lambda s, X, y: projected_fits(s["basis"],
                                       {"a": s["good"], "b": (X, y)}),
        "b", "b", "b"),
    "meta_lm_star": (
        lambda s, X, y: meta_lm_star(s["est"], s["pattern"], X, y),
        None, None, None),
    "tensortl": (
        lambda s, X, y: transfer.tensortl(s["model"], s["g_star"], X, y),
        "g_star", "g_star", "g_star"),
    "lasso_offset": (
        lambda s, X, y: lasso_offset(X, y, s["offset"], 0.1),
        None, "X", "y"),
    "lasso_kkt": (
        lambda s, X, y: lasso_kkt(X, y, s["offset"], np.zeros(6), 0.1),
        None, "X", "y"),
    "cross_validate_lambda": (
        lambda s, X, y: cross_validate_lambda(X, y, s["offset"]),
        None, "X", "y"),
}


def corrupt(kind, X, y):
    """A copy of the sample with one defect: rows that do not match the
    responses, or a NaN or inf in X or in y."""
    X, y = X.copy(), y.copy()
    if kind == "shape":
        return X[1:], y
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind[2:]]
    if kind[0] == "X":
        X[3, 2] = bad
    else:
        y[5] = bad
    return X, y


@pytest.mark.parametrize("kind", ["shape", "X nan", "X inf", "X -inf",
                                  "y nan", "y inf", "y -inf"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bad_sample_fails_before_any_solve(entry, kind, monkeypatch):
    """A design of the wrong shape raises DimensionError, and NaN or inf
    in X or y raises NonFiniteError, each with the sample's ``where``,
    before a least squares or lasso solve starts (both are replaced by a
    failing stub)."""
    s = setting()
    call, *wheres = ENTRIES[entry]
    where = wheres[0 if kind == "shape" else 1 if kind[0] == "X" else 2]
    where = s["g_star"] if where == "g_star" else where

    def solve(*args, **kwargs):
        raise AssertionError("solved before the input check")

    monkeypatch.setattr(regression, "_fit_rows", solve)
    monkeypatch.setattr(transfer, "group_lasso", solve)
    error = DimensionError if kind == "shape" else NonFiniteError
    with pytest.raises(error) as info:
        call(s, *corrupt(kind, *s["good"]))
    assert info.value.where == where
    if where is not None and entry not in ("lasso_offset", "lasso_kkt",
                                           "cross_validate_lambda"):
        assert str(info.value).startswith(f"group {where}: ")


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e != "ols_fit"])
def test_design_of_the_wrong_width_is_rejected(entry):
    """Where p is fixed (by the first sample, the basis, the model or the
    offset), a design with another column count raises DimensionError.
    A lone ``ols_fit`` takes any width."""
    s = setting()
    call, where, _, _ = ENTRIES[entry]
    X, y = s["good"]
    with pytest.raises(DimensionError) as info:
        call(s, X[:, 1:], y)
    assert info.value.where == (s["g_star"] if where == "g_star" else where)
