import importlib
import json

import pytest

from cherednik import cli, kernel, stability
from cherednik.fields import CoeffDomain
from cherednik.poly import ReducedPoly, parse_poly
from cherednik.dunkl import DunklContext, dunkl_difference
from cherednik.kernel import contravariant_pairing
from cherednik.stability import (
    StabilityInstance,
    _sweep_values,
    certify_mixed_kernel_generator,
    is_stably_in_kernel,
)


# the six families of scripts/stability_report.py
STABILITY_FAMILIES = ["x1^6", "x1^5*x2^2*x3^2", "x1^4*x2^4", "x1^3*x2^3*x3^3", "x1^2*x2^2*x3^2*x4^2", "x1^5*x2"]


def inst(text):
    return StabilityInstance.from_text(text)


def test_bounds_from_formula():
    assert inst("x1^5*x2").bound == 11  # (S,k,G) = (5,2,6)
    assert inst("x1^6").bound == 11  # (6,1,6)
    assert inst("x1^2*x2^2*x3^2*x4^2").bound == 12  # (2,4,8)
    assert inst("x1^5*x2").proof_text_bound == 10


def test_canonical_renaming():
    a = inst("x2^4*x5^4")
    assert a.k == 2 and a.G == 8 and a.S == 4
    assert a.terms == ((((4, 4)), (1,)),)


def test_zero_polynomial_is_stable():
    dom = CoeffDomain.generic(2)
    v = is_stably_in_kernel(ReducedPoly.zero(dom, 3))
    assert v.stable and v.per_n == []


def test_regime_guard():
    with pytest.raises(ValueError, match="experimental"):
        is_stably_in_kernel(StabilityInstance.from_text("x1^2", 3))
    with pytest.raises(ValueError, match="experimental"):
        is_stably_in_kernel(inst("x1^2"), t=0)
    v = is_stably_in_kernel(StabilityInstance.from_text("x1^2+x1*x2+x2^2", 3), t=1, experimental=True)
    assert not v.certifying


def test_template_is_swept_in_its_own_characteristic():
    # 2*x1^2 read mod 2 is the zero template, stable with nothing to sweep;
    # read mod 3 it is swept at p = 3 and fails at n = 3
    assert inst("2*x1^2").text() == "0"
    assert is_stably_in_kernel(inst("2*x1^2")).per_n == []
    v = is_stably_in_kernel(StabilityInstance.from_text("2*x1^2", 3), experimental=True)
    assert (v.polynomial, v.stable, v.certifying) == ("2*x1^2", False, False)
    assert [(e.n, e.in_kernel, e.witness) for e in v.per_n] == [(3, False, (0, 2))]


def test_rejected_monomial_with_witness():
    v = is_stably_in_kernel(inst("x1^5*x2"))
    assert not v.stable
    assert v.per_n[-1].n == 3  # first odd n already fails
    assert v.per_n[-1].witness is not None


@pytest.mark.parametrize("text", ["x1", "x1+x2"])
def test_bound_below_first_admissible_n_is_still_swept(text):
    # S + k + G - 2 < 3 here; the sweep must still run n = 3, where
    # B(y_1, f) = c + 1 rejects f
    v = is_stably_in_kernel(inst(text))
    assert not v.stable
    assert [(e.n, e.in_kernel, e.witness) for e in v.per_n] == [(3, False, (1, 0))]
    ctx = DunklContext.make(n=3, p=2, t=1)
    f = inst(text).instantiate(ctx)
    c = ctx.domain.c_scalar()
    assert contravariant_pairing((1, 0), f, ctx).value == ctx.domain.add(c, ctx.domain.one)


def test_constant_template_is_rejected_at_the_first_admissible_n(capsys):
    # a nonzero constant is a template with k = G = S = 0, and B(1, 1) = 1
    a = inst("1")
    assert (a.k, a.G, a.S) == (0, 0, 0)
    v = is_stably_in_kernel(a)
    assert not v.stable
    assert [(e.n, e.in_kernel, e.witness) for e in v.per_n] == [(3, False, (0, 0))]
    ctx = DunklContext.make(n=3, p=2, t=1)
    assert contravariant_pairing((0, 0), a.instantiate(ctx), ctx).value == ctx.domain.one
    # the zero template still holds with nothing to sweep
    assert is_stably_in_kernel(inst("0")).stable
    assert cli.main(["check", "stable", "--poly", "1", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is False


def test_extra_n_follow_the_first_admissible_n():
    # before the fix the extras of "x1" started at 5 and skipped n = 3
    assert _sweep_values(inst("x1"), 2) == [3, 5, 7]
    assert _sweep_values(inst("x1^4*x2^4"), 1) == [3, 5, 7, 9, 11, 13]


def test_text_formats_over_the_instance_characteristic():
    a = StabilityInstance.from_text("2*x1^2*x2+x1*x2^2", p=3)
    assert a.p == 3
    assert a.text() == "2*x1^2*x2+x1*x2^2"
    assert StabilityInstance.from_text(a.text(), p=3) == a
    assert inst("(c+1)*x1^2*x2+x1*x2^2").text() == "(c+1)*x1^2*x2+x1*x2^2"


def test_a_sign_after_star_stays_in_its_term():
    # at p = 2 the sign is -1 = 1; x1^4+x2^4, which a split at the '-' gives, is not stable
    assert StabilityInstance.from_text("x1^4*-x2^4") == StabilityInstance.from_text("x1^4*x2^4")


def test_triple_application_residual_every_admissible_n():
    # the rejection certificate: (D_{y1-y2})^3 x1^5 x2 = c (x1 x2^2 + x2^3)
    for n in (3, 5, 7):
        ctx = DunklContext.make(n=n, p=2, t=1)
        f = parse_poly("x1^5*x2", n - 1, ctx.domain)
        for _ in range(3):
            f = dunkl_difference(f, 1, 2, ctx)
        assert f == parse_poly("(c)*x1*x2^2+(c)*x2^3", n - 1, ctx.domain)


def test_even_exponent_pair_family():
    v = is_stably_in_kernel(inst("x1^4*x2^4"), extra_above_bound=1)
    assert v.stable
    # the empirical check above the bound is included in the evidence
    assert v.per_n[-1].n > v.bound


def test_renaming_invariance():
    a = is_stably_in_kernel(inst("x1^4*x2^4"))
    b = is_stably_in_kernel(inst("x3^4*x1^4"))
    assert a.stable == b.stable
    assert [e.n for e in a.per_n] == [e.n for e in b.per_n]


def test_sixth_power_family():
    v = is_stably_in_kernel(inst("x1^6"))
    assert v.stable
    assert [e.n for e in v.per_n] == [3, 5, 7, 9, 11]


def test_consistency_two_n_above_bound():
    # empirical check of the criterion itself: membership persists past the
    # bound for a stably-true polynomial
    v = is_stably_in_kernel(inst("x1^6"), extra_above_bound=2)
    assert v.stable
    assert [e.n for e in v.per_n][-2:] == [13, 15]


def test_heaviest_family_two_n_past_the_bound():
    # the family that dominates the sweep stays in ker B two odd n past its
    # bound of 15: membership does not depend on n
    v = is_stably_in_kernel(inst("x1^5*x2^2*x3^2"), extra_above_bound=2)
    assert v.stable
    assert [e.n for e in v.per_n] == list(range(5, 20, 2))
    assert all(e.in_kernel for e in v.per_n)


def test_negative_extra_above_bound_is_a_value_error():
    # -1 used to sweep as if it were 0
    with pytest.raises(ValueError, match="extra_above_bound must be at least 0"):
        is_stably_in_kernel(inst("x1^6"), extra_above_bound=-1)


def test_held_tables_never_change_a_verdict(monkeypatch):
    # the core's layouts hold the spare-slot and orbit tables a walk fills:
    # a sweep that rebuilds them for every n, and walks each n afresh, gives
    # the verdict of one that finds them left warm by other families
    core_layout = importlib.import_module("cherednik.dunkl")._core_layout
    targets = ["x1^5*x2^2*x3^2", "x1^3*x2^3*x3^3"]
    warm = {}
    for text in ["x1^6", "x1^4*x2^4", "x1^2*x2^2*x3^2*x4^2", "x1^5*x2"] + targets:
        warm[text] = is_stably_in_kernel(inst(text)).to_json()
    membership = stability.is_in_kernel

    def cold(f, ctx):
        core_layout.cache_clear()
        kernel._held_walk.cache_clear()
        return membership(f, ctx)

    monkeypatch.setattr(stability, "is_in_kernel", cold)
    for text in targets:
        assert is_stably_in_kernel(inst(text)).to_json() == warm[text]
        assert warm[text]["stable"] and len(warm[text]["per_n"]) >= 5


@pytest.mark.parametrize(
    "text, extra",
    [(text, 0) for text in STABILITY_FAMILIES] + [("x1^5*x2^2*x3^2", 2)],
)
def test_held_walk_never_changes_a_verdict(monkeypatch, text, extra):
    # a sweep carries each n's membership walk to the next n; with the held
    # walk dropped before every n it walks each n afresh, to the same verdict
    warm = is_stably_in_kernel(inst(text), extra_above_bound=extra).to_json()
    membership = stability.is_in_kernel

    def fresh(f, ctx):
        kernel._held_walk.cache_clear()
        return membership(f, ctx)

    monkeypatch.setattr(stability, "is_in_kernel", fresh)
    assert is_stably_in_kernel(inst(text), extra_above_bound=extra).to_json() == warm


def test_verdict_json_shape():
    v = is_stably_in_kernel(inst("x1^6"))
    d = v.to_json()
    assert set(d) >= {"polynomial", "bound", "per_n", "stable", "certifying"}
    assert all(set(e) >= {"n", "in_kernel"} for e in d["per_n"])


@pytest.mark.slow
def test_mixed_generator_certificate():
    rep = certify_mixed_kernel_generator()
    assert rep.identity_ok
    assert rep.generator.stable
    assert rep.x1_multiple.stable
    assert rep.auxiliary.stable
    assert rep.ok
