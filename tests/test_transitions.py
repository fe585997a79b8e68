import pytest

from qsov import exact, macdonald, qpoly, sov, suites
from qsov.exact import Laurent2, Pair, QContext, frac, pairs_under, qpochhammer

CTX = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
CTX2 = QContext(s=frac(3, 5), g=2, xi=frac(2))
KINDS = ("rho", "pi", "Q", "R", "rhot", "pit", "Qt", "Rt")
LABELS = (Pair(0, 1), Pair(-1, 2), Pair(0, 4), Pair(-3, 0), Pair(2, 5))


def test_diagonal_entries():
    for ctx in (CTX, CTX2):
        for lam in LABELS:
            m = lam.width
            rho = sov.transition_row("rho", lam, ctx).entries[lam]
            assert rho == (-1) ** m * ctx.qh(-m * (m - 1)) * (ctx.t * ctx.xi) ** (-m)
            R = sov.transition_row("R", lam, ctx).entries[lam]
            assert R == (-1) ** m * ctx.qh(m * (m - 1)) * (ctx.t * ctx.xi) ** m
            assert rho * R == 1


def test_degenerate_width_row():
    row = sov.transition_row("rho", Pair(1, 1), CTX).entries
    assert row == {Pair(1, 1): 1}


@pytest.mark.parametrize("ctx", [CTX, CTX2])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_matches_recurrence(ctx, kind):
    for lam in LABELS:
        closed = sov.transition_row(kind, lam, ctx, "closed").entries
        rec = sov.transition_row(kind, lam, ctx, "recurrence").entries
        assert closed == rec


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_reassembly(ctx):
    for lam in (Pair(0, 2), Pair(-1, 2)):
        P = macdonald.macdonald_poly(lam, ctx).poly
        for kind, tag in (("rho", "r"), ("pi", "p")):
            acc = Laurent2()
            for nu, c in sov.transition_row(kind, lam, ctx).entries.items():
                acc = acc + sov.basis(tag, nu, ctx) * c
            assert acc == P
        for kind, tag in (("Q", "p"), ("R", "r")):
            acc = Laurent2()
            for nu, c in sov.transition_row(kind, lam, ctx).entries.items():
                acc = acc + macdonald.macdonald_poly(nu, ctx).poly * c
            assert acc == sov.basis(tag, lam, ctx)


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_factorized_image_expansions(ctx):
    def f_image(nu):
        return sov.f_tensor(macdonald.separated_poly(nu, ctx)) * sov.normalization_c(nu, ctx)

    for lam in (Pair(-1, 2), Pair(0, 3)):
        F = f_image(lam)
        for kind, tag in (("pit", "pt"), ("rhot", "rt")):
            acc = Laurent2()
            for nu, c in sov.transition_row(kind, lam, ctx).entries.items():
                acc = acc + sov.basis(tag, nu, ctx) * c
            assert acc == F
        for kind, tag in (("Qt", "pt"), ("Rt", "rt")):
            acc = Laurent2()
            for nu, c in sov.transition_row(kind, lam, ctx).entries.items():
                acc = acc + f_image(nu) * c
            assert acc == sov.basis(tag, lam, ctx)


def test_tilded_scalings():
    lam = Pair(-1, 2)
    pi_row = sov.transition_row("pi", lam, CTX).entries
    pit_row = sov.transition_row("pit", lam, CTX).entries
    for nu, value in pit_row.items():
        assert value == pi_row[nu] * sov.mu_p(nu, CTX)
    Q_row = sov.transition_row("Q", lam, CTX).entries
    Qt_row = sov.transition_row("Qt", lam, CTX).entries
    for nu, value in Qt_row.items():
        assert value == Q_row[nu] / sov.mu_p(lam, CTX)


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_mutual_inverse_identities(ctx):
    lam = Pair(-1, 3)
    under = pairs_under(lam)
    rows = {
        kind: {l: sov.transition_row(kind, l, ctx).entries for l in under}
        for kind in ("rho", "pi", "Q", "R")
    }
    zero = frac(0)
    for first, second in (("R", "rho"), ("rho", "R"), ("Q", "pi"), ("pi", "Q")):
        for mu in under:
            total = zero
            for nu in under:
                if lam.contains(nu) and nu.contains(mu):
                    total += rows[first][lam].get(nu, zero) * rows[second][nu].get(
                        mu, zero
                    )
            assert total == (frac(1) if mu == lam else zero)


@pytest.fixture
def cold_rows():
    """Empty the per-context tables (rows, multipliers) before the test, and drop what it stored after."""
    exact.clear_tables()
    yield
    exact.clear_tables()


def _doubled(fn):
    """fn with every value it returns doubled: a scalar, or each entry of a row dict."""
    def wrong(*args):
        out = fn(*args)
        return {nu: 2 * v for nu, v in out.items()} if isinstance(out, dict) else 2 * out
    return wrong


# (function corrupted, route cached before corrupting it, kinds that read it)
CORRUPTIONS = [
    ("_closed_entry", "recurrence", KINDS),
    ("_rho_row_recurrence", "closed", ("rho", "pi", "rhot", "pit")),
    ("_R_row_recurrence", "closed", ("R", "Q", "Rt", "Qt")),
]


@pytest.mark.parametrize("name,cached_route,kinds", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_routes_stay_independent_under_cache(cold_rows, monkeypatch, name, cached_route, kinds):
    lam = Pair(-1, 2)
    for kind in KINDS:
        sov.transition_row(kind, lam, CTX, cached_route)
    monkeypatch.setattr(sov, name, _doubled(getattr(sov, name)))
    with pytest.raises(AssertionError, match="row construction mismatch"):
        suites.case_transitions(CTX, lam)
    for kind in kinds:
        closed = sov.transition_row(kind, lam, CTX, "closed").entries
        assert closed != sov.transition_row(kind, lam, CTX, "recurrence").entries, kind


@pytest.mark.parametrize("method", ["closed", "recurrence"])
def test_row_entries_are_fresh_copies(cold_rows, method):
    lam = Pair(-1, 2)
    for kind in KINDS:
        first = sov.transition_row(kind, lam, CTX2, method).entries
        terms = list(first.items())
        first[Pair(9, 9)] = frac(1)
        first[lam] += 1
        del first[Pair(0, 0)]
        assert list(sov.transition_row(kind, lam, CTX2, method).entries.items()) == terms, kind


def _reference_multiplier(e, m, ctx):
    t, q = ctx.t, ctx.q
    return t ** (-e) * ctx.xi ** (2 * e) * qpochhammer(t, q, m) / qpochhammer(t ** 2, q, m)


def _reference_entry(kind, lam, nu, ctx):
    """Uncached formula: the closed entry of the base kind times the tilded multiplier."""
    base = kind[:-1] if kind.endswith("t") else kind
    value = sov._closed_entry(base, lam, nu, ctx)
    if kind == "pit":
        value *= _reference_multiplier(nu.l1, nu.width, ctx)
    elif kind == "rhot":
        value *= _reference_multiplier(nu.l2, nu.width, ctx)
    elif kind == "Qt":
        value /= _reference_multiplier(lam.l1, lam.width, ctx)
    elif kind == "Rt":
        value /= _reference_multiplier(lam.l2, lam.width, ctx)
    return value


def test_cold_cache_tilded_first_two_contexts(cold_rows):
    # every tilded kind before its base kind, contexts and routes interleaved
    order = [
        (kind, ctx, lam, method)
        for kind in ("rhot", "Qt", "pit", "Rt", "rho", "Q", "pi", "R")
        for lam in (Pair(-1, 2), Pair(0, 3), Pair(-3, 0))
        for ctx in (CTX2, CTX)
        for method in ("recurrence", "closed")
    ]
    for kind, ctx, lam, method in order:
        expected = [
            (nu, v) for nu in pairs_under(lam)
            if (v := _reference_entry(kind, lam, nu, ctx)) != 0
        ]
        entries = sov.transition_row(kind, lam, ctx, method).entries
        # the closed route lists nu in pairs_under order; the recurrence grows from the diagonal
        got = list(entries.items()) if method == "closed" else entries
        want = expected if method == "closed" else dict(expected)
        assert got == want, (kind, ctx, lam, method)


def test_transitions_suite_builds_each_table_entry_once(monkeypatch):
    """Cold tables: every (base, n) Pochhammer entry and every phi_width is built at most once."""
    exact.clear_tables()
    built = []  # (base, n) of every Pochhammer entry made
    extend = exact._PochArray._extend

    def counting_extend(arr, n):
        side = arr._up if n >= 0 else arr._down
        before = len(side)
        try:
            extend(arr, n)
        finally:
            sign = 1 if n >= 0 else -1
            built.extend((arr.a, sign * k) for k in range(before, len(side)))

    widths = []
    factor = macdonald._separated_factor

    def counting_factor(n, ctx):
        widths.append((ctx, n))
        return factor(n, ctx)

    direct = []

    def counting_qpochhammer(*args):
        direct.append(args)
        return qpochhammer(*args)

    monkeypatch.setattr(exact._PochArray, "_extend", counting_extend)
    monkeypatch.setattr(macdonald, "_separated_factor", counting_factor)
    for module in (exact, macdonald, qpoly, sov, suites):
        if getattr(module, "qpochhammer", None) is qpochhammer:
            monkeypatch.setattr(module, "qpochhammer", counting_qpochhammer)
    try:
        report = suites.run_suite("transitions", s_values=["1/2"], g_values=[2], xi_values=["3/2"], lmax=3)
    finally:
        exact.clear_tables()
    assert report["status"] == "pass"
    assert len(built) == len(set(built)) and len(widths) == len(set(widths))
    # not vacuous: the four bases of the context and every width up to 6 were built
    ctx = QContext(s=frac(1, 2), g=2, xi=frac(3, 2))
    assert {a for a, _ in built} == {ctx.q, ctx.t, ctx.t * ctx.q, ctx.t ** 2}
    assert sorted(n for _, n in widths) == list(range(7))
    assert direct == []
