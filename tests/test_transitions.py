from math import gcd

import pytest

from qsov import exact, macdonald, qpoly, sov, suites
from qsov.exact import Laurent2, Pair, QContext, frac, pairs_under, qpochhammer

CTX = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
CTX2 = QContext(s=frac(3, 5), g=2, xi=frac(2))
KINDS = ("rho", "pi", "Q", "R", "rhot", "pit", "Qt", "Rt")
LABELS = (Pair(0, 1), Pair(-1, 2), Pair(0, 4), Pair(-3, 0), Pair(2, 5))


def _entries(row) -> dict:
    """A transition row as a fresh {Pair: scalar} dict, in the row's term order."""
    return {Pair(*k): v for k, v in row.c.items()}


def test_diagonal_entries():
    for ctx in (CTX, CTX2):
        for lam in LABELS:
            m = lam.width
            rho = _entries(sov.transition_row("rho", lam, ctx))[lam]
            assert rho == (-1) ** m * ctx.s ** (-m * (m - 1)) * (ctx.t * ctx.xi) ** (-m)
            R = _entries(sov.transition_row("R", lam, ctx))[lam]
            assert R == (-1) ** m * ctx.s ** (m * (m - 1)) * (ctx.t * ctx.xi) ** m
            assert rho * R == 1


def test_degenerate_width_row():
    row = _entries(sov.transition_row("rho", Pair(1, 1), CTX))
    assert row == {Pair(1, 1): 1}


@pytest.mark.parametrize("ctx", [CTX, CTX2])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_matches_recurrence(ctx, kind):
    for lam in LABELS:
        closed = _entries(sov.transition_row(kind, lam, ctx, "closed"))
        rec = _entries(sov.transition_row(kind, lam, ctx, "recurrence"))
        assert closed == rec


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_reassembly(ctx):
    for lam in (Pair(0, 2), Pair(-1, 2)):
        P = macdonald.macdonald_poly(lam, ctx).poly
        for kind, tag in (("rho", "r"), ("pi", "p")):
            acc = Laurent2()
            for nu, c in _entries(sov.transition_row(kind, lam, ctx)).items():
                acc = acc + sov.basis(tag, nu, ctx) * c
            assert acc == P
        for kind, tag in (("Q", "p"), ("R", "r")):
            acc = Laurent2()
            for nu, c in _entries(sov.transition_row(kind, lam, ctx)).items():
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
            for nu, c in _entries(sov.transition_row(kind, lam, ctx)).items():
                acc = acc + sov.basis(tag, nu, ctx) * c
            assert acc == F
        for kind, tag in (("Qt", "pt"), ("Rt", "rt")):
            acc = Laurent2()
            for nu, c in _entries(sov.transition_row(kind, lam, ctx)).items():
                acc = acc + f_image(nu) * c
            assert acc == sov.basis(tag, lam, ctx)


def test_tilded_scalings():
    lam = Pair(-1, 2)
    pi_row = _entries(sov.transition_row("pi", lam, CTX))
    pit_row = _entries(sov.transition_row("pit", lam, CTX))
    for nu, value in pit_row.items():
        assert value == pi_row[nu] * sov.mu_p(nu, CTX)
    Q_row = _entries(sov.transition_row("Q", lam, CTX))
    Qt_row = _entries(sov.transition_row("Qt", lam, CTX))
    for nu, value in Qt_row.items():
        assert value == Q_row[nu] / sov.mu_p(lam, CTX)


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_mutual_inverse_identities(ctx):
    lam = Pair(-1, 3)
    under = pairs_under(lam)
    rows = {
        kind: {l: _entries(sov.transition_row(kind, l, ctx)) for l in under}
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
        closed = _entries(sov.transition_row(kind, lam, CTX, "closed"))
        assert closed != _entries(sov.transition_row(kind, lam, CTX, "recurrence")), kind


@pytest.mark.parametrize("stored", [False, True], ids=["cold", "stored"])
def test_transition_row_rejects_unknown_arguments(cold_rows, stored):
    # the arguments are checked when a row is built, whether or not rows of lam are stored
    lam = Pair(-1, 2)
    if stored:
        for kind in KINDS:
            for method in ("closed", "recurrence"):
                sov.transition_row(kind, lam, CTX, method)
    before = set(exact.tables(CTX).rows)
    for kind in ("bogus", "rhott"):
        with pytest.raises(ValueError, match="unknown transition kind"):
            sov.transition_row(kind, lam, CTX)
    for kind in ("rho", "Qt"):
        with pytest.raises(ValueError, match="method must be"):
            sov.transition_row(kind, lam, CTX, "bogus")
    assert set(exact.tables(CTX).rows) == before


@pytest.mark.parametrize("method", ["closed", "recurrence"])
def test_row_entries_are_fresh_copies(cold_rows, method):
    # no caller can change a stored row: its c view refuses writes, and the
    # entries read from it are a fresh dict
    lam = Pair(-1, 2)
    for kind in KINDS:
        row = sov.transition_row(kind, lam, CTX2, method)
        terms = list(row.c.items())
        with pytest.raises(TypeError):
            row.c[(9, 9)] = frac(1)
        with pytest.raises(TypeError):
            row.c[(lam.l1, lam.l2)] += 1
        with pytest.raises(TypeError):
            del row.c[(0, 0)]
        first = _entries(row)
        first[Pair(9, 9)] = frac(1)
        first[lam] += 1
        del first[Pair(0, 0)]
        assert list(sov.transition_row(kind, lam, CTX2, method).c.items()) == terms, kind


def _reference_multiplier(e, m, ctx):
    t, q = ctx.t, ctx.q
    return t ** (-e) * ctx.xi ** (2 * e) * qpochhammer(t, q, m) / qpochhammer(t ** 2, q, m)


def _reference_closed_entry(base, lam, nu, ctx):
    """The closed product formula of a rho, pi, Q or R entry, on qpochhammer and plain powers."""
    q, t, xi = ctx.q, ctx.t, ctx.xi
    m = nu.width

    def pq(n):
        return qpochhammer(q, q, n)

    if base in ("rho", "pi"):
        def pt(n):
            return qpochhammer(t, q, n)

        num = pt(nu.l2 - lam.l1) * pt(lam.l2 - nu.l1) * pq(lam.width)
        den = pq(lam.l2 - nu.l2) * pq(nu.l1 - lam.l1) * pt(m) * pt(lam.width) * pq(m)
    else:
        def ptq(n):
            return qpochhammer(t * q, q, n)

        num = ptq(lam.width) * ptq(m) * pq(lam.width)
        den = pq(lam.l2 - nu.l2) * pq(nu.l1 - lam.l1) * ptq(nu.l2 - lam.l1) * ptq(lam.l2 - nu.l1) * pq(m)
    squares = nu.l1 ** 2 + nu.l2 ** 2
    if base == "rho":
        power = (t * xi) ** (lam.total - 2 * nu.l2)
        expo = m * (2 * lam.l1 + 1 - nu.total)
    elif base == "pi":
        power = xi ** (lam.total - 2 * nu.l1)
        expo = m * (nu.total - 2 * lam.l2 + 1)
    elif base == "R":
        power = (t * xi) ** (2 * lam.l2 - nu.total)
        expo = 2 * lam.l2 ** 2 - 2 * (nu.total + 1) * lam.l2 + nu.total + squares
    else:
        power = xi ** (2 * lam.l1 - nu.total)
        expo = 2 * lam.l1 ** 2 - 2 * (nu.total - 1) * lam.l1 - nu.total + squares
    return (-1) ** m * power * ctx.s ** expo * num / den


def _reference_entry(kind, lam, nu, ctx):
    """Uncached formula: the closed entry of the base kind times the tilded multiplier."""
    base = kind[:-1] if kind.endswith("t") else kind
    value = _reference_closed_entry(base, lam, nu, ctx)
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
        entries = _entries(sov.transition_row(kind, lam, ctx, method))
        # the closed route lists nu in pairs_under order; the recurrence grows from the diagonal
        got = list(entries.items()) if method == "closed" else entries
        want = expected if method == "closed" else dict(expected)
        assert got == want, (kind, ctx, lam, method)


def _kept(before: list, after) -> bool:
    """True when every entry of before is still in after, at its index, as the same object."""
    return len(after) >= len(before) and all(a is b for a, b in zip(before, after))


def test_transitions_suite_builds_each_table_entry_once(monkeypatch):
    """Cold tables: every table entry and every phi_width is built at most once, and all are built.

    Each grower must also leave the entries it had before a call in place, as
    the same objects: a grower that rebuilt them would make each entry once
    per call while every count below still saw it made once.
    """
    exact.clear_tables()
    rebuilt = []  # (grower, argument) of every call that replaced an earlier entry
    int_built = []  # (e, n) of every integer Pochhammer entry (s^e; q)_n made
    int_extend = exact._IntPochArray._extend

    def counting_int_extend(arr, n):
        up = list(arr._up)
        try:
            int_extend(arr, n)
        finally:
            int_built.extend((arr.e, k) for k in range(len(up), len(arr._up)))
            if not _kept(up, arr._up):
                rebuilt.append(("ipoch", arr.e, n))

    powers = []  # m of every (a^m, b^m) power made
    extend_ipow = exact.ContextTables._extend_ipow

    def counting_extend_ipow(tab, m):
        old = list(tab._ipowers)
        try:
            extend_ipow(tab, m)
        finally:
            powers.extend(range(len(old), len(tab._ipowers)))
            if not _kept(old, tab._ipowers):
                rebuilt.append(("ipow", m))

    widths = []
    factor = macdonald._separated_factor

    def counting_factor(n, ctx):
        widths.append((ctx, n))
        stored = dict(exact.tables(ctx).separated)
        try:
            return factor(n, ctx)
        finally:
            now = exact.tables(ctx).separated
            if any(now.get(k) is not v for k, v in stored.items()):
                rebuilt.append(("phi", n))

    direct = []

    def counting_qpochhammer(*args):
        direct.append(args)
        return qpochhammer(*args)

    monkeypatch.setattr(exact._IntPochArray, "_extend", counting_int_extend)
    monkeypatch.setattr(exact.ContextTables, "_extend_ipow", counting_extend_ipow)
    monkeypatch.setattr(macdonald, "_separated_factor", counting_factor)
    for module in (exact, macdonald, qpoly, sov, suites):
        if getattr(module, "qpochhammer", None) is qpochhammer:
            monkeypatch.setattr(module, "qpochhammer", counting_qpochhammer)
    try:
        report = suites.run_suite("transitions", s_values=["1/2"], g_values=[2], xi_values=["3/2"], lmax=3)
    finally:
        exact.clear_tables()
    assert report["status"] == "pass"
    assert rebuilt == []
    assert len(int_built) == len(set(int_built)) and len(powers) == len(set(powers))
    assert len(widths) == len(set(widths))
    # not vacuous: every base of the context and every width up to 6 were built.  With
    # g = 2 the bases q = s^2, t = s^4, t q = s^6 and t^2 = s^8 are the exponents
    # {2, 2g, 2g + 2, 4g}, each up to n = 6 (the widest label of lmax = 3), and every
    # power s^m their factors 1 - s^m need, up to (t^2; q)_6's last one, s^18
    g = 2
    assert {base for base, _ in int_built} == {2, 2 * g, 2 * g + 2, 4 * g}
    for e in (2, 2 * g, 2 * g + 2, 4 * g):
        assert sorted(n for base, n in int_built if base == e) == list(range(1, 7)), e
    assert set(range(1, 19)) <= set(powers)
    assert sorted(n for _, n in widths) == list(range(7))
    assert direct == []


def _assert_canonical(row):
    """Python-int numerators (never gmpy2.mpz) over one positive int denominator, gcd 1."""
    assert type(row) is Laurent2
    assert type(row._d) is int and row._d > 0
    assert all(type(v) is int and v != 0 for v in row._n.values())
    assert gcd(row._d, *row._n.values()) == 1


def test_stored_rows_are_canonical(cold_rows):
    ctx3 = QContext(s=frac(2, 3), g=2, xi=frac(-9, 4))  # negative xi: odd powers flip signs
    for ctx in (CTX, CTX2, ctx3):
        for lam in LABELS:
            for kind in KINDS:
                for method in ("closed", "recurrence"):
                    row = sov.transition_row(kind, lam, ctx, method)
                    assert exact.tables(ctx).rows[(kind, lam, method)] is row
        rows = exact.tables(ctx).rows
        assert len(rows) >= len(LABELS) * len(KINDS) * 2
        for key, row in rows.items():
            _assert_canonical(row)
            assert all(Pair(*k) in pairs_under(key[1]) for k in row.c), key


def test_row_sums_fail_on_one_corrupted_entry(cold_rows, monkeypatch):
    lam, nu = Pair(-1, 2), Pair(0, 1)
    suites.case_mutual_inverse(CTX, lam)
    suites.case_reassembly(CTX, lam)
    key = ("R", lam, "closed")
    row = exact.tables(CTX).rows[key]
    terms = dict(row.c)
    terms[(nu.l1, nu.l2)] *= 2  # an off-diagonal entry of R at a label under lam
    monkeypatch.setitem(exact.tables(CTX).rows, key, Laurent2(terms))
    assert _entries(sov.transition_row("R", lam, CTX))[nu] == 2 * row.coeff(nu.l1, nu.l2)
    # the sum gains R[lam][nu] * (row nu of rho), so it first fails at the first label,
    # in pairs_under order, where that rho row has an entry
    rho_nu = _entries(sov.transition_row("rho", nu, CTX))
    first = next(mu for mu in pairs_under(lam) if mu in rho_nu)
    with pytest.raises(AssertionError, match=rf"^inverse identity R\*rho fails at mu={first}, lam={lam}$"):
        suites.case_mutual_inverse(CTX, lam)
    with pytest.raises(AssertionError, match="reassembly of the r basis fails"):
        suites.case_reassembly(CTX, lam)
