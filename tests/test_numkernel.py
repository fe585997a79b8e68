import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsov import numkernel as nk
from qsov import sov, suites
from qsov.errors import ContourUnsupported, ToleranceExceeded, TrendViolation
from qsov.exact import Laurent2, Pair, QContext, frac

CFG = nk.DEFAULT_CONFIG


def test_config_validation():
    with pytest.raises(ValueError):
        nk.NumericConfig(quad_points=8)
    with pytest.raises(ValueError):
        nk.NumericConfig(prod_cutoff=1e-3)
    with pytest.raises(ValueError):
        nk.NumericConfig(tol_tight=0.0)
    with pytest.raises(ValueError):
        nk.NumericConfig(tol_loose=float("nan"))


def test_awparams_disk():
    with pytest.raises(ContourUnsupported):
        nk.AWParams(1.2, 0, 0, 0)


def test_qprod_inf_basics():
    assert nk.qprod_inf(0.0, 0.25) == 1.0
    a, q = 0.3 + 0.1j, 0.25
    lhs = nk.qprod_inf(a, q)
    rhs = (1 - a) * nk.qprod_inf(a * q, q)
    assert abs(lhs - rhs) < CFG.tol_tight
    loose = nk.NumericConfig(prod_cutoff=1e-14)
    assert abs(nk.qprod_inf(q, q, loose) - nk.qprod_inf(q, q)) < 1e-12


def _qprod_inf_out_of_place(a, q, cfg=CFG):
    """Array reference: (a; q)_inf at every entry of a by the loop out = out * (1 - a q^k)."""
    arr = np.asarray(a, dtype=complex)
    K = nk._trunc_order(float(np.max(np.abs(arr))), q, cfg.prod_cutoff)
    out = np.ones_like(arr)
    qk = 1.0
    for _ in range(K):
        out = out * (1.0 - arr * qk)
        qk *= q
    return out


def _qprod_inf_python(a, q, cfg=CFG):
    """Scalar reference: the same loop in Python complex arithmetic."""
    a = complex(a)
    out, qk = 1.0 + 0.0j, 1.0
    for _ in range(nk._trunc_order(abs(a), q, cfg.prod_cutoff)):
        out = out * (1.0 - a * qk)
        qk *= q
    return out


def _aw_weight_out_of_place(x, params, q):
    """Array reference for aw_weight at every entry of x, in aw_weight's order of operations."""
    den = np.ones_like(x)
    for z in params.as_tuple():
        den = den * _qprod_inf_out_of_place(z * x, q) * _qprod_inf_out_of_place(z / x, q)
    return _qprod_inf_out_of_place(x ** 2, q) * _qprod_inf_out_of_place(x ** -2, q) / den


def _lambda_q_out_of_place(nu, r, y, q):
    """Array reference for lambda_q(nu, r, y) at every entry of y."""
    return (
        _qprod_inf_out_of_place(nu * r * y, q)
        * _qprod_inf_out_of_place(nu * r / y, q)
        * _qprod_inf_out_of_place(nu * y / r, q)
        * _qprod_inf_out_of_place(nu / (r * y), q)
    )


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _near_unit(r):
    # r in [0, 1) to |a| in [0.9, 1 - 1e-12), on a log scale of the distance to 1
    return 1.0 - 10.0 ** (-1.0 - 11.0 * r)


_moduli = st.one_of(st.floats(0.0, 0.999), st.floats(0.0, 1.0, exclude_max=True).map(_near_unit))
_complex_draws = st.builds(cmath.rect, _moduli, st.floats(0.0, 2.0 * math.pi))
_real_draws = st.builds(lambda r, sign: sign * r, _moduli, st.sampled_from((1.0, -1.0)))
_qprod_scalars = st.one_of(
    st.sampled_from((0, 0.0, 0j, np.float64(0.0))),
    _real_draws,
    _complex_draws,
    _real_draws.map(np.float64),
    _complex_draws.map(np.complex128),
)


@settings(max_examples=200, deadline=None)
@given(a=_qprod_scalars, q=st.floats(0.05, 0.95))
@example(a=cmath.rect(1e-14, 2.9171371992104036), q=0.1)
def test_qprod_inf_scalar_types_match_python_complex_loop(a, q):
    # every scalar type runs Python's complex arithmetic, which never fuses
    # multiply-adds, so the value matches the Python loop to the last bit;
    # at the example draw a loop in numpy 0-d arithmetic differs in the last bit
    value = nk.qprod_inf(a, q)
    assert type(value) is complex
    assert _bits(value) == _bits(_qprod_inf_python(a, q))


def test_qprod_inf_refuses_a_node_array():
    # the node grid goes through qprod_nodes; complex() refuses an array of ndim > 0
    with pytest.raises(TypeError):
        nk.qprod_inf(nk.unit_nodes(256), 0.25)


def test_qprod_ratio_matches_quotient():
    a, b, q = 0.4 + 0.2j, -0.3 + 0.1j, 0.3
    direct = nk.qprod_inf(a, q) / nk.qprod_inf(b, q)
    assert abs(nk.qprod_ratio(a, b, q) - direct) < 1e-13


def _qprod_ratio_scalar(a, b, q, cfg=CFG):
    """Reference: the factor-by-factor loop, one ratio per step."""
    K = nk._trunc_order(max(abs(a), abs(b)), q, cfg.prod_cutoff)
    out, qk = 1.0 + 0.0j, 1.0
    for _ in range(K):
        out *= (1.0 - a * qk) / (1.0 - b * qk)
        qk *= q
    return out


def _classical_limit_pairs(q, r, y):
    """The four (a, b) pairs lambda_ratio forms for each of the two shifts of apply_I_minus1."""
    nu = math.sqrt(q)
    pairs = []
    for y2 in (nu * y, y / nu):
        pairs += [
            (nu * r * y, nu * r * y2),
            (nu * r / y, nu * r / y2),
            (nu * y / r, nu * y2 / r),
            (nu / (r * y), nu / (r * y2)),
        ]
    return pairs


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_qprod_ratio_matches_scalar_loop(q):
    # complex arguments, as classical_limit_checks passes them, and one pair off the real axis
    pairs = _classical_limit_pairs(q, 0.3 + 0.0j, 0.5 + 0.0j) + [(0.4 + 0.2j, 0.38 + 0.21j)]
    for a, b in pairs:
        ref = _qprod_ratio_scalar(a, b, q)
        val = nk.qprod_ratio(a, b, q)
        assert isinstance(val, complex)
        assert abs(val - ref) <= 1e-12 * abs(ref)
    # real arguments: same powers, same ratios, same order of products
    for a, b in _classical_limit_pairs(q, 0.3, 0.5):
        assert nk.qprod_ratio(a, b, q) == _qprod_ratio_scalar(a, b, q)


@pytest.mark.parametrize("block", [nk._RATIO_BLOCK, 2])
@pytest.mark.parametrize("b", [1.0, 4.0])
def test_qprod_ratio_pole(monkeypatch, block, b):
    # 1 - b q^k vanishes exactly at k = 0 (b = 1) and k = 2 (b = 4, q = 1/2);
    # with two factors per block, k = 2 opens the second block
    monkeypatch.setattr(nk, "_RATIO_BLOCK", block)
    with pytest.raises(ContourUnsupported, match="pole"):
        nk.qprod_ratio(0.3, b, 0.5)


@pytest.mark.parametrize("block", [nk._RATIO_BLOCK, 2])
def test_qprod_ratio_pole_in_stacked_pair(monkeypatch, block):
    # the third of four pairs has 1 - 4 q^2 = 0 at q = 1/2; with two factors
    # per block over four rows each row still takes one factor per step
    monkeypatch.setattr(nk, "_RATIO_BLOCK", block)
    with pytest.raises(ContourUnsupported, match="pole"):
        nk.qprod_ratio([0.3, 0.2j, 0.1, -0.4], [0.5, 0.3, 4.0, 0.2], 0.5)


def test_stacked_pairs_truncate_at_the_largest_modulus():
    # K from the pair of modulus 2e-6 would leave out 0.9 q^k terms of about 1e-11
    a, b, q = [1e-6, 0.9], [2e-6, -0.8], 0.5
    ref = _qprod_ratio_scalar(a[0], b[0], q) * _qprod_ratio_scalar(a[1], b[1], q)
    assert abs(nk.qprod_ratio(a, b, q) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("r", [0.3 + 0.0j, 0.3 + 0.1j])
def test_lambda_ratio_matches_four_scalar_loops(q, r):
    nu, y = math.sqrt(q), 0.5 + 0.0j
    pairs = _classical_limit_pairs(q, r, y)
    for y2, four in ((nu * y, pairs[:4]), (y / nu, pairs[4:])):
        ref = math.prod((_qprod_ratio_scalar(a, b, q) for a, b in four), start=1.0 + 0.0j)
        val = nk.lambda_ratio(nu, r, y, y2, q)
        assert type(val) is complex
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_scalar_q_work_stays_scalar():
    nodes = nk.unit_nodes(256)
    for z in (0.4 + 0.3j, cmath.exp(0.7j)):
        assert type(nk.qpoch_n(z, 0.25, 3)) is complex
        assert type(nk.cq_numeric(3, 0.5, 0.25, z)) is complex
        # the scalar values are the array values at the same point
        at = nk.qpoch_n(np.array([z]), 0.25, 3)
        assert isinstance(at, np.ndarray) and abs(nk.qpoch_n(z, 0.25, 3) - at[0]) <= 1e-15
        at = nk.cq_numeric(3, 0.5, 0.25, np.array([z]))
        assert isinstance(at, np.ndarray) and abs(nk.cq_numeric(3, 0.5, 0.25, z) - at[0]) <= 1e-15
    assert nk.qpoch_n(nodes, 0.25, 2).shape == nodes.shape
    assert nk.cq_numeric(2, 0.5, 0.25, nodes).shape == nodes.shape


def test_qprod_ratio_block_size_does_not_change_result(monkeypatch):
    pairs = _classical_limit_pairs(0.99, 0.3, 0.5) + _classical_limit_pairs(0.99, 0.3 + 0.1j, 0.5)
    ref = [nk.qprod_ratio(a, b, 0.99) for a, b in pairs]
    monkeypatch.setattr(nk, "_RATIO_BLOCK", 7)
    assert [nk.qprod_ratio(a, b, 0.99) for a, b in pairs] == ref


def test_aw_integral_zero_params():
    [val] = nk.aw_integral_report([nk.AWParams(0, 0, 0, 0)], 0.25)["values"]
    assert abs(val - 2.0 / nk.qprod_inf(0.25, 0.25)) < CFG.tol_tight


def test_aw_integral_matches_closed_form():
    rng = random.Random(0)
    for q in (0.2, 0.4):
        for _ in range(10):
            params = nk.AWParams(
                *(
                    cmath.rect(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
                    for _ in range(4)
                )
            )
            [quad] = nk.aw_integral_report([params], q)["values"]
            closed = nk.aw_closed_form(params, q)
            assert abs(quad - closed) / abs(closed) < 1e-10


def test_aw_integral_list_matches_single_calls():
    rng = random.Random(3)
    draws = [
        nk.AWParams(*(cmath.rect(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi)) for _ in range(4)))
        for _ in range(6)
    ]
    rep = nk.aw_integral_report(draws, 0.3)
    many = rep["values"]
    assert len(many) == len(draws) and rep["tol"] == CFG.tol_tight
    for params, val in zip(draws, many):
        [single] = nk.aw_integral_report([params], 0.3)["values"]
        assert isinstance(single, complex)
        assert val == single
    closed = [nk.aw_closed_form(p, 0.3) for p in draws]
    assert rep["errs"] == [abs(v - c) / abs(c) for v, c in zip(many, closed)]
    assert rep["max_err"] == max(rep["errs"])
    # every draw is checked, not only the worst
    strict = nk.NumericConfig(tol_tight=min(rep["errs"]) / 2)
    with pytest.raises(ToleranceExceeded):
        nk.aw_integral_report(draws, 0.3, strict)


def test_aw_integral_permutation_symmetry():
    p1 = nk.AWParams(0.3, -0.2, 0.1j, 0.4)
    p2 = nk.AWParams(0.4, 0.1j, -0.2, 0.3)
    v1, v2 = nk.aw_integral_report([p1, p2], 0.25)["values"]
    assert abs(v1 - v2) < 1e-12


def test_aw_integral_tolerance_guard():
    strict = nk.NumericConfig(tol_tight=1e-300)
    with pytest.raises(ToleranceExceeded):
        nk.aw_integral_report([nk.AWParams(0.3, -0.2, 0.1j, 0.4)], 0.25, strict)


def test_aw_spectral_convergence():
    rep = nk.aw_convergence_report(nk.AWParams(0.3, -0.2, 0.1j, 0.4), 0.25)
    assert all(r >= 4.0 for r in rep["ratios"])


def test_mab_constant_and_eigenaction():
    y, r = cmath.exp(-0.9j), cmath.exp(0.4j)
    [val] = nk.apply_Mab_numeric([lambda x: np.ones_like(x)], 0.7, 1.1, r, y, 0.25)
    assert abs(val - 1.0) < CFG.tol_tight
    rep = nk.mab_eigenpoly_report(0.7, 1.1, r, y, 0.25)
    assert rep["max_err"] < 1e-8


def test_mab_eigenpoly_report_uses_tol_tight():
    y, r = cmath.exp(-0.9j), cmath.exp(0.4j)
    rep = nk.mab_eigenpoly_report(0.7, 1.1, r, y, 0.25, CFG)
    assert rep["tol"] == CFG.tol_tight
    assert 0 < rep["max_err"] < CFG.tol_tight
    strict = nk.NumericConfig(tol_tight=rep["max_err"] / 2)
    with pytest.raises(ToleranceExceeded):
        nk.mab_eigenpoly_report(0.7, 1.1, r, y, 0.25, strict)


def test_mab_list_matches_single_calls():
    alpha, beta, q = 0.7, 1.1, 0.25
    y, r = cmath.exp(-0.9j), cmath.exp(0.4j)
    degrees = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (1, 1, 0, 1), (0, 0, 0, 3)]
    inputs = [lambda x, d=d: nk.r_factor(*d, alpha, beta, r, y, x, q) for d in degrees]
    many = nk.apply_Mab_numeric(inputs, alpha, beta, r, y, q)
    assert isinstance(many, list) and len(many) == len(inputs)
    assert nk.apply_Mab_numeric(tuple(inputs), alpha, beta, r, y, q) == many
    for f, val in zip(inputs, many):
        [single] = nk.apply_Mab_numeric([f], alpha, beta, r, y, q)
        assert isinstance(single, complex)
        assert val == single


def test_map_vs_integral_case_uses_tol_tight():
    worst = suites.case_mxi_vs_exact("1/2", 1, "3/2", CFG)
    assert 0 < worst < CFG.tol_tight
    strict = nk.NumericConfig(tol_tight=worst / 2)
    with pytest.raises(AssertionError, match="disagrees with the algebraic map"):
        suites.case_mxi_vs_exact("1/2", 1, "3/2", strict)


def test_mab_contour_guard():
    with pytest.raises(ContourUnsupported):
        nk.apply_Mab_numeric([lambda x: np.ones_like(x)], 0.7, 1.1, 3.0, 0.5, 0.25)


def test_separating_integral_matches_algebra():
    ctx = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
    q, t, xi = float(ctx.q), float(ctx.t), float(ctx.xi)
    for th1, th2 in ((0.3, 0.55), (0.8, -0.4)):
        y1, y2 = t * cmath.exp(-2j * th1), t * cmath.exp(-2j * th2)
        yp = t * cmath.exp(-1j * (th1 + th2))
        for nu in (Pair(0, 1), Pair(-1, 1)):
            pol = sov.basis("p", nu, ctx)
            [val] = nk.apply_M_xi_numeric([pol], ctx.g, q, xi, y1, yp)
            ref = complex(sov.basis("pt", nu, ctx).evaluate(y1, y2)) * float(
                sov.mu_p(nu, ctx)
            )
            assert abs(val - ref) / max(abs(ref), 1.0) < 1e-8


def test_separating_integral_on_a_sequence_matches_single_calls():
    ctx = QContext(s=frac(1, 2), g=2, xi=frac(1))
    q, t, xi = float(ctx.q), float(ctx.t), float(ctx.xi)
    th1, th2 = 0.8, -0.4
    y1, y2 = t * cmath.exp(-2j * th1), t * cmath.exp(-2j * th2)
    yp = t * cmath.exp(-1j * (th1 + th2))
    pols = [sov.basis("p", nu, ctx) for nu in (Pair(0, 0), Pair(0, 1), Pair(-1, 1), Pair(0, 2))]
    many = nk.apply_M_xi_numeric(pols, ctx.g, q, xi, y1, yp)
    assert isinstance(many, list) and len(many) == len(pols)
    for pol, val in zip(pols, many):
        [single] = nk.apply_M_xi_numeric([pol], ctx.g, q, xi, y1, yp)
        assert isinstance(single, complex)
        assert val == single


def _mxi_grid(g, q, xi, y1, yp, n):
    """(kernel, scale, nodes) of apply_M_xi_numeric: the input is read at (scale x, scale / x)."""
    t = q ** g
    kern = nk.kern_mab(yp / t, y1 / yp, n, g, g, q, CFG)
    return kern, xi * yp / math.sqrt(t), nk.unit_nodes(n)


@pytest.mark.parametrize("n", [256, 2048])
def test_moment_quadrature_matches_node_sum(n):
    ctx = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
    q, t, xi = float(ctx.q), float(ctx.t), float(ctx.xi)
    y1, yp = t * cmath.exp(-1.6j), t * cmath.exp(-0.4j)
    pols = [sov.basis("p", nu, ctx) for nu in (Pair(0, 0), Pair(0, 1), Pair(-1, 1), Pair(0, 2))]
    kern, scale, x = _mxi_grid(ctx.g, q, xi, y1, yp, n)
    cfg = nk.NumericConfig(quad_points=n)
    for pol, val in zip(pols, nk.apply_M_xi_numeric(pols, ctx.g, q, xi, y1, yp, cfg)):
        ref = complex(np.mean(kern * pol.evaluate(scale * x, scale / x)))
        assert abs(val - ref) <= 1e-14 * abs(ref), pol


def test_moment_quadrature_aliases_as_the_node_grid_does():
    # on 256 nodes x^256 = 1 and x^(+-257) = x^(+-1), so these terms read the
    # moments 0, n - 1 and 1, which are of order one
    n, ctx = 256, QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
    q, t, xi = float(ctx.q), float(ctx.t), float(ctx.xi)
    y1, yp = t * cmath.exp(-1.6j), t * cmath.exp(-0.4j)
    pol = Laurent2({(0, 0): 1, (128, -128): frac(-2, 3), (129, -128): frac(5, 7), (-129, 128): 3})
    [val] = nk.apply_M_xi_numeric([pol], ctx.g, q, xi, y1, yp, nk.NumericConfig(quad_points=n))
    kern, scale, x = _mxi_grid(ctx.g, q, xi, y1, yp, n)
    # numpy's 129th power of a node is off by up to 5e-14 (against a 40-digit
    # sum), so the node-array sum holds to 1e-13; with x^(a-b) read from the
    # grid by index the same sum holds to 1e-14
    ref = complex(np.mean(kern * pol.evaluate(scale * x, scale / x)))
    assert abs(val - ref) <= 1e-13 * abs(ref)
    j = np.arange(n)
    by_index = sum(float(c) * scale ** (a + b) * x[j * (a - b) % n] for (a, b), c in pol.c.items())
    ref = complex(np.mean(kern * by_index))
    assert abs(val - ref) <= 1e-14 * abs(ref)


def test_numkernel_suite_passes_no_array_to_laurent_evaluate(monkeypatch):
    arrays = []
    evaluate = Laurent2.evaluate

    def recording(self, z1, z2):
        if np.ndim(z1) or np.ndim(z2):
            arrays.append(np.shape(z1))
        return evaluate(self, z1, z2)

    monkeypatch.setattr(Laurent2, "evaluate", recording)
    report = suites.run_suite("numkernel")
    assert report["status"] == "pass" and arrays == []


def test_check_disk_accepts_arrays():
    nk._check_disk(np.array([0.1, 0.5j, -0.99]), 0.3, np.array([[0.2], [0.7j]]))
    with pytest.raises(ContourUnsupported):
        nk._check_disk(np.array([0.1, 1.0, 0.2]))
    with pytest.raises(ContourUnsupported):
        nk._check_disk(0.5, np.array([[0.1, 0.2], [0.3, 1.5j]]))
    with pytest.raises(ContourUnsupported):
        nk._check_disk(np.array([0.5]), 1.2)
    # an output point outside the disk fails the kernel
    with pytest.raises(ContourUnsupported):
        nk.kern_I(0.5, cmath.exp(0.35j), 5.0 + 0j, 16, 0.25)


@pytest.mark.parametrize("n_inner", (64, 200, 201, 512))
def test_blocked_group_law_inner_values_match_rows(n_inner):
    # reference: one general-y kern_I row per node, no node-grid factorization
    r, q = cmath.exp(0.35j), 0.25
    nodes = nk.unit_nodes(n_inner)
    fvals = 1.0 + 0.5 * (nodes + 1.0 / nodes)
    for beta in (0.7, 1.0):
        rows = np.array(
            [np.mean(nk.kern_I(beta, r, complex(y), n_inner, q) * fvals) for y in nodes]
        )
        blocked = nk.fractional_on_nodes(beta, r, fvals, q)
        assert blocked.shape == (n_inner,)
        assert np.max(np.abs(blocked - rows)) < 1e-13


def test_group_law_kernel_costs_linear_q_products(monkeypatch):
    # the node-grid factorization needs O(n) points of (a; q)_inf, where a
    # kern_I row per node needs about 4 n^2
    n = 512
    sizes = []
    qprod_inf = nk.qprod_inf

    def counting(a, q, cfg=CFG):
        sizes.append(np.size(a))
        return qprod_inf(a, q, cfg)

    monkeypatch.setattr(nk, "qprod_inf", counting)
    nodes = nk.unit_nodes(n)
    fvals = 1.0 + 0.5 * (nodes + 1.0 / nodes)
    nk.fractional_on_nodes(0.7, cmath.exp(0.35j), fvals, 0.25)
    assert 0 < sum(sizes) <= 16 * n
    # the reference point still has to keep sqrt(q) r inside the unit disk
    with pytest.raises(ContourUnsupported):
        nk.fractional_on_nodes(0.7, 3.0, fvals, 0.25)


_REFLECTION_CS = (0.0, 0.5, -0.3 + 0.4j, 0.99, 0.99j, cmath.rect(0.99, 2.0), cmath.rect(0.7, -1.1))
#: c on either side of the split between direct factors and the log series
#: (|c| = 0.5 goes to the series, 0.5000001 is multiplied in directly), and
#: c = 1, whose zero lies on the grid
_SPLIT_CS = (0.5000001, 1.0)


def _reflection_bound(pairs):
    """Relative bound for reflected vs direct products of (c z, c/z; q)_inf.

    On the node grid 1/x_j is x_(-j mod n) only up to rounding: the two
    differ by about 2e-16, and by twice that for x^2.  A factor 1 - c z near
    zero amplifies that by 1/|1 - c z| in the direct and the reflected form
    alike (100-fold at c z = 0.99).  So the bound is 1e-14 where every factor
    is at least 0.5 from zero, and grows as 1/gap below.
    """
    gap = np.min([np.minimum(np.abs(1.0 - c * z), np.abs(1.0 - c / z)) for c, z in pairs], axis=0)
    # a zero factor (x^2 = 1 at x = 1) makes both forms exactly 0
    return 1e-14 * np.maximum(1.0, 0.5 / np.maximum(gap, 1e-300))


def _base_growth(q, q0):
    """How much more rounding error qprod_nodes and the product loop carry at q than at q0.

    The log series of a pair sums terms c'^m / (m (1 - q^m)) with
    |c'| <= 1/2; since 1 - q^m >= 1 - q, their moduli add up to at most
    2 ln 2 / (1 - q), and the rounding of each of them, of the FFT over
    them and of the exp is relative to that sum.  The direct factors run
    while |c q^k| > 1/2, at most ln(2 |c|) / ln(1/q) <= ln 2 / (1 - q) of
    them for |c| <= 1, and the reference loop runs K ~ ln(1e16) / ln(1/q)
    <= 37 / (1 - q) factors, one rounding each.  Every term grows as
    1 / (1 - q), so a bound set at q0 scales by (1 - q0) / (1 - q).
    """
    return (1.0 - q0) / (1.0 - q)


def _grid_powers(n, p):
    """x^p on x = unit_nodes(n), read from the grid by index as qprod_nodes reads it."""
    return nk.unit_nodes(n)[(p * np.arange(n)) % n]


@pytest.mark.parametrize("n", (8, 64, 201, 2048))
def test_qprod_pair_nodes_matches_direct_products(n):
    # one pair (c x^p, c x^-p; q)_inf from qprod_nodes against the two
    # products (c z; q)_inf (c/z; q)_inf at the same points z = x^p, in the
    # numerator and in the denominator; odd n too
    for q in (0.3, 0.5, 0.9):
        grow = _base_growth(q, 0.3)
        for p in (1, 2):
            z = _grid_powers(n, p)
            for c in _REFLECTION_CS + _SPLIT_CS:
                ref = _qprod_inf_out_of_place(c * z, q) * _qprod_inf_out_of_place(c / z, q)
                got = nk.qprod_nodes(n, q, num=[(c, p)])
                bound = grow * _reflection_bound([(c, z)])
                assert np.all(np.abs(got - ref) <= bound * np.abs(ref)), (n, q, p, c)
                if abs(c) <= 0.7:
                    assert np.all(np.abs(got - ref) <= grow * 1e-14 * np.abs(ref)), (n, q, p, c)
                if abs(c) < 1.0:
                    inv = nk.qprod_nodes(n, q, den=[(c, p)])
                    assert np.all(np.abs(inv * ref - 1.0) <= bound), (n, q, p, c)
        # the zeros of (x, 1/x; q)_inf and (x^2, x^-2; q)_inf on the grid are exact
        assert nk.qprod_nodes(n, q, num=[(1.0, 1)])[0] == 0.0
        two = nk.qprod_nodes(n, q, num=[(1.0, 2)])
        assert two[0] == 0.0 and (n % 2 or two[n // 2] == 0.0)


@pytest.mark.parametrize("n", (8, 64, 201, 2048))
def test_node_grid_weights_match_general_point_weights(n):
    x = nk.unit_nodes(n)
    params = [
        nk.AWParams(0.3, -0.2, 0.1j, 0.4),
        nk.AWParams(0.5 + 0.1j, -0.35j, 0.45, -0.2 + 0.3j),
        nk.AWParams(0.9, cmath.rect(0.95, 1.0), -0.6j, 0.0),
    ]
    r = cmath.exp(0.35j)
    for q in (0.25, 0.5, 0.9):
        grow = _base_growth(q, 0.25)
        for p in params:
            got, ref = nk.aw_weight_on_nodes(n, p, q), _aw_weight_out_of_place(x, p, q)
            bound = grow * _reflection_bound([(1.0, x ** 2)] + [(z, x) for z in p.as_tuple()])
            assert np.all(np.abs(got - ref) <= bound * np.abs(ref)), (n, q, p)
        # lambda_q(0.6, r, x) is the two pairs c = 0.6 r and c = 0.6 / r
        assert np.allclose(
            nk.qprod_nodes(n, q, num=[(0.6 * r, 1), (0.6 / r, 1)]),
            _lambda_q_out_of_place(0.6, r, x, q),
            rtol=grow * 1e-14, atol=0.0,
        )


def _count_nodes(monkeypatch):
    """Record the node count of every qprod_nodes call."""
    nodes = []
    qprod_nodes = nk.qprod_nodes

    def counting_nodes(*args, **kwargs):
        nodes.append(args[0])
        return qprod_nodes(*args, **kwargs)

    monkeypatch.setattr(nk, "qprod_nodes", counting_nodes)
    return nodes


def test_node_grid_kernels_take_one_log_domain_evaluation(monkeypatch):
    # every weight and kernel on the node grid is one qprod_nodes call; the
    # reflected form took one array q-product per pair, 5 per weight and per kernel
    nodes = _count_nodes(monkeypatch)
    weight = nk.AWParams(0.3, -0.2, 0.1j, 0.4)
    nk.aw_integral_report([weight], 0.25)
    assert nodes == [2048]
    nodes.clear()
    nk.aw_integral_report([weight] * 3, 0.25)
    assert nodes == [2048] * 3
    nodes.clear()
    ctx = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
    q, t = float(ctx.q), float(ctx.t)
    y1, yp = t * cmath.exp(-0.6j), t * cmath.exp(-0.85j)
    nk.apply_M_xi_numeric([sov.basis("p", Pair(0, 1), ctx)], ctx.g, q, 1.5, y1, yp)
    assert nodes == [CFG.quad_points]
    nodes.clear()
    # fractional_on_nodes: 1/F, the output factor lambda_q(sqrt(q), r, y)
    # and the node-side weight
    fvals = np.ones(512, dtype=complex)
    nk.fractional_on_nodes(0.7, cmath.exp(0.35j), fvals, 0.25)
    assert nodes == [512] * 3


#: numkernel families whose integrands are built on the node grid by qprod_nodes
_NODE_GRID_FAMILIES = (
    "circle-integral", "integral-symmetry", "kernel-eigenaction", "integral-vs-algebraic-map",
    "product-formula", "orthogonality", "fractional-power-action", "fractional-group-law",
)


def test_node_grid_residuals_stay_at_rounding_level():
    # Their tolerances are 1e-10 and 1e-6, loose enough to pass a truncated
    # log series or a dropped direct factor in qprod_nodes; the residuals of
    # the default run are at most 3.2e-15, so hold them to 1e-14.
    report = suites.run_suite("numkernel")
    seen = set()
    for case in report["cases"]:
        if case["paper_eq"] in _NODE_GRID_FAMILIES:
            seen.add(case["paper_eq"])
            assert case["status"] == "pass" and case["residual"] <= 1e-14, case
    assert seen == set(_NODE_GRID_FAMILIES)


def test_group_law_kernel_matches_mpmath_quadrature():
    # the same 64-node trapezoid sum, each kernel entry built from the
    # general four-fold products at 50 digits rather than from F[i+j] F[j-i]
    mpmath = pytest.importorskip("mpmath")
    n, beta, q, r = 64, 0.7, 0.25, cmath.exp(0.35j)
    nodes = nk.unit_nodes(n)
    got = nk.fractional_on_nodes(beta, r, 1.0 + 0.5 * (nodes + 1.0 / nodes), q)
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        qa, sq = qm ** (mpmath.mpf(beta) / 2), mpmath.sqrt(qm)
        rm = mpmath.mpc(r.real, r.imag)
        xs = [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]

        def lam(nu, a, b):
            return (mpmath.qp(nu * a * b, qm) * mpmath.qp(nu * a / b, qm)
                    * mpmath.qp(nu * b / a, qm) * mpmath.qp(nu / (a * b), qm))

        gamma = mpmath.qp(qm, qm) * (1 - qm) ** (1 - beta) / mpmath.qp(qm ** beta, qm)
        head = (1 - qm) * mpmath.qp(qm, qm) ** 2 / (2 * gamma * n)
        side = [lam(sq, rm, x) for x in xs]
        weighted = [
            mpmath.qp(x ** 2, qm) * mpmath.qp(x ** -2, qm) * (1 + (x + 1 / x) / 2) / s
            for x, s in zip(xs, side)
        ]
        for i in (0, 21, 37):
            ref = complex(
                head * side[i] * mpmath.fsum(w / lam(qa, xs[i], x) for x, w in zip(xs, weighted))
            )
            assert abs(got[i] - ref) < 1e-13 * abs(ref), i


@pytest.mark.parametrize("n", range(6))
def test_product_formula(n):
    rep = nk.product_formula_check(n, 0.7, 1.1, 0.25, 0.5)
    assert rep["err"] < 1e-6


def test_kernel_series_truncation():
    rep = nk.kernel_series_check(0.5, 0.9, 1.3, 0.25, 0.5)
    assert rep["err"] < 1e-6


def test_orthogonality():
    assert nk.orthogonality_check(0, 1, 0.25, 0.5)["err"] < 1e-6
    for n in (0, 2, 4):
        assert nk.orthogonality_check(n, n, 0.25, 0.5)["err"] < 1e-6


def test_product_and_orthogonality_cases_share_their_weights(monkeypatch):
    calls, built = [], []
    original = nk.qprod_nodes

    def counting(*args, **kwargs):
        calls.append(slug)
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(nk, "qprod_nodes", counting)
    nk._node_weight.cache_clear()
    cases = suites._numeric_cases(CFG, 0)
    for _, slug, fn, args in cases:
        if slug in ("product-formula", "orthogonality"):
            fn(*args)
    # 5 weights for the 30 product cases, one for the 15 orthogonality cases
    assert sum(1 for s in cases if s[1] == "product-formula") == 30
    assert calls.count("product-formula") == 5
    assert calls.count("orthogonality") == 1
    info = nk._node_weight.cache_info()
    assert (info.currsize, info.maxsize) == (6, 16)
    for weight in built:
        with pytest.raises(ValueError):
            weight[0] = 0.0


def test_shared_weights_give_the_residuals_of_a_cold_build():
    warm = [nk.product_formula_check(n, 0.7, 1.1, 0.25, 0.5)["err"] for n in (0, 3)]
    warm.append(nk.orthogonality_check(2, 2, 0.25, 0.5)["err"])
    cold = []
    for n in (0, 3):
        nk._node_weight.cache_clear()
        cold.append(nk.product_formula_check(n, 0.7, 1.1, 0.25, 0.5)["err"])
    nk._node_weight.cache_clear()
    cold.append(nk.orthogonality_check(2, 2, 0.25, 0.5)["err"])
    assert warm == cold


def test_node_weight_cache_is_bounded():
    nk._node_weight.cache_clear()
    bound = nk._node_weight.cache_info().maxsize
    first = nk._node_weight(np.zeros, 1)
    assert not first.flags.writeable
    for size in range(2, bound + 4):
        nk._node_weight(np.zeros, size)
    assert nk._node_weight.cache_info().currsize == bound == 16
    # the least recently used weight was dropped and is built anew, the newest is kept
    assert nk._node_weight(np.zeros, bound + 3) is nk._node_weight(np.zeros, bound + 3)
    assert nk._node_weight(np.zeros, 1) is not first
    nk._node_weight.cache_clear()


@pytest.mark.parametrize("n", (0, 2, 4))
def test_difference_equation(n):
    assert nk.qdiff_equation_check(n, 0.25, 0.5)["err"] < 1e-6


def test_fractional_power_action():
    r, y = cmath.exp(0.35j), cmath.exp(-1.1j)
    for alpha, nu in ((0.5, 0.4), (0.3, 1.0), (1.0, 0.7)):
        assert nk.power_action_report(alpha, nu, r, y, 0.25)["err"] < 1e-6
    # negative integer orders act through the finite-difference branch
    for g in (1, 2):
        val = nk.apply_I_fractional(lambda x: nk.psi_power(2.5, r, x, 0.25), -g, r, y, 0.25)
        ref = complex(nk.psi_power(2.5 - g, r, y, 0.25))
        assert abs(val - ref) / abs(ref) < 1e-6


def test_fractional_group_property():
    ys = [cmath.exp(0.7j), cmath.exp(-2.1j)]
    for alpha, beta in ((0.5, 0.5), (0.3, 0.7), (1.0, 1.0)):
        rep = nk.group_property_report(alpha, beta, cmath.exp(0.35j), ys, 0.25)
        assert rep["err"] < 1e-6


@pytest.mark.parametrize("g", (1, 2, 3))
def test_negative_order_composition(g):
    ys = [cmath.exp(0.7j), cmath.exp(-2.1j), cmath.exp(1.9j)]
    rep = nk.neg_order_consistency_report(g, cmath.exp(0.35j), ys, 0.25)
    assert rep["err"] < 1e-10


def test_noninteger_negative_order_rejected():
    with pytest.raises(ContourUnsupported):
        nk.apply_I_fractional(lambda x: x, -0.5, 0.3, 0.5, 0.25)


def test_classical_limits():
    rep = nk.classical_limit_checks()
    assert rep["poly_errors"][1] < rep["poly_errors"][0]
    assert rep["op_errors"][1] < rep["op_errors"][0]


def test_trend_guard():
    with pytest.raises(TrendViolation):
        nk.assert_decreasing([1e-3, 2e-3], "synthetic")


def test_gamma_normalizer_consistency():
    # b_q must factor through the adopted gamma normalization
    q = 0.25
    for a, b in ((0.7, 1.1), (1.0, 1.0), (0.4, 2.2)):
        lhs = nk.b_q(a, b, q)
        rhs = nk.gamma_q(a, q) * nk.gamma_q(b, q) / nk.gamma_q(a + b, q)
        assert abs(lhs - rhs) < 1e-12
    assert abs(nk.gamma_q(1.0, q) - 1.0) < 1e-14


def test_qprod_inf_and_aw_closed_form_match_mpmath():
    # 50-digit references for the truncated infinite product and for the
    # closed form 2 (abcd;q)_inf / ((q;q)_inf prod_{pairs} (xy;q)_inf).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for a, q in ((0.3 + 0.2j, 0.25), (-0.55 + 0.1j, 0.4), (0.9 - 0.3j, 0.6)):
            ref = complex(mpmath.qp(mpmath.mpc(a.real, a.imag), mpmath.mpf(q)))
            assert abs(nk.qprod_inf(a, q) - ref) < 1e-14 * abs(ref), (a, q)
        for params, q in (
            ((0.3, -0.2, 0.1j, 0.4), 0.25),
            ((0.5 + 0.1j, -0.35j, 0.45, -0.2 + 0.3j), 0.4),
            ((0.55, 0.5j, -0.45, 0.3 - 0.3j), 0.2),
        ):
            a, b, c, d = (mpmath.mpc(complex(x).real, complex(x).imag) for x in params)
            qm = mpmath.mpf(q)
            den = mpmath.qp(qm, qm)
            for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
                den *= mpmath.qp(pair, qm)
            ref = complex(2 * mpmath.qp(a * b * c * d, qm) / den)
            got = nk.aw_closed_form(nk.AWParams(*params), q)
            assert abs(got - ref) < 1e-14 * abs(ref), (params, q)
