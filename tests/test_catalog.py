import pytest

from cherednik.fields import CoeffDomain
from cherednik.poly import ReducedPoly, format_poly, parse_poly
from cherednik.dunkl import DunklContext
from cherednik.catalog import FAMILIES, RegimeError, singular_catalog
from cherednik.kernel import is_in_kernel, is_singular


def ctx_of(n, p, t, c=None):
    return DunklContext.make(n=n, p=p, t=t, c=c)


def test_quad_pair_construction():
    ctx = ctx_of(5, 2, 0)
    f = singular_catalog("quad_pair", {"i": 1, "j": 2}, ctx)
    assert f == parse_poly("x1^2+x1*x2+x2^2", 4, ctx.domain)


def test_quad_pair_with_substituted_index():
    ctx = ctx_of(5, 2, 0)
    f = singular_catalog("quad_pair", {"i": 1, "j": 5}, ctx)
    assert is_singular(f, ctx)


def test_quartic_c_pair_components():
    ctx = ctx_of(5, 2, 1)
    f = singular_catalog("quartic_c_pair", {"i": 1, "j": 2}, ctx)
    dom = ctx.domain
    assert all(dom.is_polynomial(v) for v in f.terms.values())
    c0 = {m: dom.c_coefficients(v)[0] % 2 for m, v in f.terms.items()}
    part = ReducedPoly(CoeffDomain.prime(2), f.nvars, {m: a for m, a in c0.items() if a})
    assert format_poly(part) == "x1^4+x1^2*x2^2+x2^4"
    assert is_singular(f, ctx)


def test_quartic_c_pair_all_indices_n5():
    ctx = ctx_of(5, 2, 1)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert is_singular(
                singular_catalog("quartic_c_pair", {"i": i, "j": j}, ctx), ctx
            )


def test_skew_quad_family():
    for p, n in [(3, 4), (3, 7), (5, 6)]:
        ctx = ctx_of(n, p, 0)
        f = singular_catalog("skew_quad", {"i": 1, "j": 2, "k": 3}, ctx)
        assert is_singular(f, ctx)


def test_cubic_pair_membership():
    ctx = ctx_of(4, 3, 0)
    f = singular_catalog("cubic_pair", {"i": 1, "j": 2}, ctx)
    assert is_in_kernel(f, ctx).member


def test_power_pair_membership_and_raw_flag():
    ctx = ctx_of(4, 3, 0)
    f = singular_catalog("power_pair", {"i": 1, "j": 2}, ctx)
    assert f.degree() == 3
    assert is_in_kernel(f, ctx).member
    # raw annihilation by the operators can fail; membership is the claim
    ctx56 = ctx_of(6, 5, 0)
    f5 = singular_catalog("power_pair", {"i": 1, "j": 2}, ctx56)
    assert f5.degree() == 5
    assert is_in_kernel(f5, ctx56).member


def test_coeff_series_family():
    ctx = ctx_of(4, 2, 1)
    fs = [singular_catalog("coeff_series", {"i": i}, ctx) for i in (1, 2, 3)]
    for f in fs:
        assert f.degree() == ctx.p
        assert is_singular(f, ctx)
    # linearly independent: each has a distinguished (c+1) x_i^2 coefficient
    dom = ctx.domain
    for i, f in enumerate(fs):
        e = tuple(2 if k == i else 0 for k in range(3))
        assert f.terms[e] == dom.from_c_poly((1, 1))


def test_regime_errors():
    with pytest.raises(RegimeError, match="t=0"):
        singular_catalog("quad_pair", {"i": 1, "j": 2}, ctx_of(5, 2, 1))
    with pytest.raises(RegimeError, match="p=2"):
        singular_catalog("quad_pair", {"i": 1, "j": 2}, ctx_of(4, 3, 0))
    with pytest.raises(RegimeError, match="odd p"):
        singular_catalog("skew_quad", {"i": 1, "j": 2, "k": 3}, ctx_of(5, 2, 0))
    with pytest.raises(RegimeError, match="p=2"):
        singular_catalog("quartic_c_pair", {"i": 1, "j": 2}, ctx_of(4, 3, 1))
    with pytest.raises(RegimeError, match="generic"):
        singular_catalog("quartic_c_pair", {"i": 1, "j": 2}, ctx_of(5, 2, 1, c=1))
    with pytest.raises(RegimeError, match=r"p \| n"):
        singular_catalog("coeff_series", {"i": 1}, ctx_of(5, 2, 1))
    with pytest.raises(ValueError, match="distinct"):
        singular_catalog("quad_pair", {"i": 2, "j": 2}, ctx_of(5, 2, 0))
    with pytest.raises(ValueError, match="unknown family"):
        singular_catalog("nope", {}, ctx_of(5, 2, 0))
    assert len(FAMILIES) == 6
