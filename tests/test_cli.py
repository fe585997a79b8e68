import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from qsov import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_separated(capsys):
    code, out = run_cli(
        capsys, "compute", "separated", "--lam", "0,1", "--s", "1/2", "--g", "1"
    )
    assert code == 0
    # with q = s^2 = 1/4 and t = q^g = 1/4 the top coefficient is 1/t = 4
    assert json.loads(out) == {"0": "1", "1": "4"}


def test_compute_macdonald(capsys):
    code, out = run_cli(
        capsys, "compute", "macdonald", "--lam", "0,2", "--s", "1/2", "--g", "1"
    )
    assert code == 0
    table = json.loads(out)
    # (1+q)(1-t)/(1-qt) evaluated at q = t = 1/4
    assert table["1,1"] == "1"
    assert table["0,2"] == "1"


def test_compute_cpoly_collapse(capsys):
    code, out = run_cli(
        capsys, "compute", "cpoly", "--n", "3", "--beta", "q", "--s", "1/2", "--g", "1"
    )
    assert code == 0
    assert json.loads(out) == {"-3": "1", "-1": "1", "1": "1", "3": "1"}


def test_compute_transition_degenerate(capsys):
    code, out = run_cli(capsys, "compute", "transition", "--kind", "rho", "--lam", "1,1")
    assert code == 0
    assert json.loads(out) == {"1,1": "1"}


def test_compute_basis_csv(capsys):
    code, out = run_cli(
        capsys, "compute", "basis", "--basis", "p", "--nu", "0,1", "--xi", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert '"0,0",1' in lines


def test_factorize(capsys):
    code, out = run_cli(
        capsys, "factorize", "--lam", "0,1", "--s", "1/2", "--g", "1", "--xi", "1"
    )
    assert code == 0
    payload = json.loads(out)
    # c = t xi (1-t)/(1-t^2) at t = 1/4 is 1/5
    assert payload == {
        "c": "1/5",
        "f": {"0": "1", "1": "4"},
        "lam": "0,1",
        "verified": True,
    }


def test_factorize_trivial(capsys):
    code, out = run_cli(capsys, "factorize", "--lam", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "1" and payload["f"] == {"0": "1"}


def test_verify_small_grid_json(capsys):
    code, out = run_cli(
        capsys, "verify", "qpoly", "--lmax", "1", "--s", "1/2", "--g", "1",
        "--xi", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"suite", "grid", "cases", "status", "elapsed_ms"}
    assert report["status"] == "pass"
    for case in report["cases"]:
        assert {"id", "paper_eq", "status"} <= set(case)


def test_verify_deterministic(capsys):
    argv = ["verify", "qpoly", "--lmax", "1", "--s", "1/2", "--g", "1", "--xi", "1", "--json"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert (code1, r1) == (code2, r2)


def test_verify_human_readable(capsys):
    code, out = run_cli(
        capsys, "verify", "macdonald", "--lmax", "1", "--s", "1/2", "--g", "1", "--xi", "1"
    )
    assert code == 0
    assert out.strip().endswith("ms")
    assert out.startswith("PASS")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuchsuite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    code, out = run_cli(
        capsys, "compute", "transition", "--kind", "R", "--lam", "0,1", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert set(payload) == {"0,0", "0,1", "1,1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "cpoly", "--s", "2"],
        ["compute", "cpoly", "--s", "1/0"],
        ["compute", "cpoly", "--g", "0"],
        ["compute", "cpoly", "--n", "-1"],
        ["compute", "cpoly", "--beta", "abc"],
        ["compute", "basis", "--nu", "3,1"],
        ["compute", "macdonald", "--lam", "x"],
        ["factorize", "--lam", "1,0"],
        ["verify", "qpoly", "--s", "abc"],
        ["verify", "numkernel", "--quad-points", "10"],
        ["verify", "numkernel", "--tol-tight", "nan"],
        ["verify", "ruijsenaars", "--tol-loose", "inf"],
    ],
)
def test_bad_flag_value_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("qsov: error: ")


def _int_pair_scalar(n, d=1):
    """A scalar backend that takes int pairs only: a stand-in for one that reads strings unlike Fraction."""
    assert type(n) is int and type(d) is int
    return Fraction(n, d)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "sov", "--xi", "1/0"], "--xi", "1/0"),
        (["verify", "qpoly", "--s", "1/2", "--s", "abc"], "--s", "abc"),
        (["compute", "cpoly", "--s", "abc"], "--s", "abc"),
        (["compute", "basis", "--xi", "2/0"], "--xi", "2/0"),
        (["compute", "cpoly", "--beta", "1/x"], "--beta", "1/x"),
        (["factorize", "--lam", "0,1", "--s", "1//2"], "--s", "1//2"),
        # values that parse but lie out of range
        (["verify", "qpoly", "--s", "1/2", "--s", "2"], "--s", "2"),
        (["compute", "cpoly", "--s", "1"], "--s", "1"),
        (["verify", "sov", "--xi", "0"], "--xi", "0"),
        (["factorize", "--lam", "0,1", "--xi", "0/3"], "--xi", "0/3"),
        (["verify", "qpoly", "--g", "1", "--g", "0"], "--g", "0"),
        (["compute", "cpoly", "--g", "-2"], "--g", "-2"),
        (["compute", "cpoly", "--lam", "2,1"], "--lam", "2,1"),
        (["factorize", "--lam", "1,0"], "--lam", "1,0"),
        (["compute", "basis", "--nu", "3,1"], "--nu", "3,1"),
        (["compute", "basis", "--nu", "x"], "--nu", "x"),
    ],
)
def test_bad_rational_names_flag_and_value(capsys, monkeypatch, argv, flag, value):
    def no_run(*args, **kwargs):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli.suites, "run_suite", no_run)
    messages = []
    for backend in (cli.frac, _int_pair_scalar):
        monkeypatch.setattr(cli, "frac", backend)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        messages.append(err.splitlines()[-1])
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"qsov: error: {flag} must be ")
    assert messages[0].endswith(f"got {value!r}")


def test_rational_flags_accept_the_same_literals_on_any_backend(capsys, monkeypatch):
    argv = ["compute", "cpoly", "--n", "2", "--s", "0.5", "--xi", "-5/7", "--beta", "3/2"]
    code, out = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "frac", _int_pair_scalar)
    assert run_cli(capsys, *argv) == (code, out) and code == 0


def test_negative_lmax_is_usage_error(capsys):
    # a negative bound leaves the label grid empty, which must not read as a pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "qpoly", "--lmax", "-1"])
    assert exc.value.code == 2
    assert "--lmax" in capsys.readouterr().err
    code, out = run_cli(
        capsys, "verify", "qpoly", "--lmax", "0", "--s", "1/2", "--g", "1", "--xi", "1", "--json"
    )
    assert code == 0
    assert any(case["id"].startswith("onevar[") for case in json.loads(out)["cases"])


@pytest.mark.parametrize(
    "name,grid",
    [("sov", {"s_values": ()}), ("qpoly", {"g_values": ()}), ("transitions", {"xi_values": ()})],
)
def test_grid_that_runs_nothing_is_an_error(name, grid):
    # an empty case list has nothing to pass, so it must not report "pass"
    with pytest.raises(ValueError, match="no case"):
        cli.suites.run_suite(name, **grid)


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["compute", "transition", "--lam", "-1,2"], ["compute", "transition", "--lam=-1,2"]),
        (["compute", "basis", "--nu", "-3,1"], ["compute", "basis", "--nu=-3,1"]),
        (["compute", "basis", "--xi", "-5/7"], ["compute", "basis", "--xi=-5/7"]),
        (["factorize", "--lam", "-2,3"], ["factorize", "--lam=-2,3"]),
    ],
)
def test_negative_flag_value_without_equals(capsys, argv, joined):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    code_eq, out_eq = run_cli(capsys, *joined)
    assert (code, out) == (code_eq, out_eq)


def test_negative_flag_values_reach_the_computation():
    args = cli.build_parser().parse_args(
        ["compute", "basis", "--nu", "-3,1", "--xi", "-5/7", "--lam", "-1,2", "--n", "-0"]
    )
    assert (args.nu, args.xi, args.lam, args.n) == ("-3,1", "-5/7", "-1,2", 0)
    # store_true flags take no value, so a following '-...' token stays an option
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "qpoly", "--json", "-1"])


@pytest.mark.parametrize("workers", ["0", "-1", str(4 * (os.cpu_count() or 1) + 1)])
def test_workers_out_of_range_is_usage_error(capsys, monkeypatch, workers):
    def no_run(*args, **kwargs):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli.suites, "run_suite", no_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "qpoly", "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("qsov: error: --workers")


def test_fork_pool_matches_serial(capsys):
    reports = []
    for workers in ("1", "2"):
        code, out = run_cli(
            capsys, "verify", "transitions", "--lmax", "2", "--json", "--workers", workers
        )
        assert code == 0
        report = json.loads(out)
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_ruijsenaars_bounds_follow_tolerance_flags(capsys):
    code, out = run_cli(
        capsys, "verify", "ruijsenaars", "--tol-tight", "1e-30", "--tol-loose", "1e-30", "--json"
    )
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert report["grid"]["tol_tight"] == 1e-30 and report["grid"]["tol_loose"] == 1e-30
    failed = {c["id"].split("[")[0] for c in report["cases"] if c["status"] == "fail"}
    # charpoly and hermitian read tol_tight, involutivity tol_loose; the
    # separation, canonicity and dilog bounds are fixed and still pass
    assert {"charpoly", "involutivity"} <= failed <= {"charpoly", "involutivity", "hermitian"}


#: Modules only a numeric suite or a numeric function may load.
NUMERIC_ONLY = ("numpy", "qsov.numkernel", "qsov.ruijsenaars", "multiprocessing")


def _fresh(code: str):
    """Run code in a new interpreter; return what it prints as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_the_numeric_layer():
    loaded = _fresh(
        f"""
        import contextlib, io, json, sys
        numeric = {NUMERIC_ONLY!r}
        seen = {{}}
        def note(stage):
            seen[stage] = [m for m in numeric if m in sys.modules]
        import qsov
        note("import qsov")
        import qsov.cli
        note("import qsov.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                qsov.cli.main(["verify", "qpoly", "--lmax", "1", "--json"]),
                qsov.cli.main(["compute", "macdonald", "--lam=-1,2"]),
            ]
        note("exact commands")
        seen["codes"] = codes
        print(json.dumps(seen))
        """
    )
    assert loaded == {
        "import qsov": [], "import qsov.cli": [], "exact commands": [], "codes": [0, 0]
    }


@pytest.mark.parametrize("flag, value", [("--tol-tight", "nan"), ("--quad-points", "10")])
def test_numeric_flags_are_checked_without_numpy(flag, value):
    result = _fresh(
        f"""
        import contextlib, io, json, sys
        import qsov.cli
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                qsov.cli.main(["verify", "qpoly", {flag!r}, {value!r}])
            except SystemExit as exc:
                code = exc.code
        loaded = [m for m in {NUMERIC_ONLY!r} if m in sys.modules]
        print(json.dumps({{"code": code, "err": err.getvalue(), "loaded": loaded}}))
        """
    )
    assert result["code"] == 2 and result["loaded"] == []
    assert "Traceback" not in result["err"]
    errors = [line for line in result["err"].splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("qsov: error: ")


def test_numeric_modules_load_on_first_use():
    result = _fresh(
        """
        import json, sys
        import qsov
        before = "qsov.numkernel" in sys.modules
        nk = qsov.numkernel
        from qsov import ruijsenaars
        namespace = {}
        exec("from qsov import *", namespace)
        try:
            qsov.no_such_module
            missing = None
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps({
            "before": before,
            "same": nk is sys.modules["qsov.numkernel"] and ruijsenaars is qsov.ruijsenaars,
            "config": nk.NumericConfig is qsov.suites.NumericConfig
                      and nk.DEFAULT_CONFIG == nk.NumericConfig(),
            "all": sorted(qsov.__all__),
            "star": sorted(k for k in namespace if k != "__builtins__"),
            "missing": missing,
        }))
        """
    )
    assert result["before"] is False
    assert result["same"] and result["config"]
    assert "numkernel" in result["all"] and "ruijsenaars" in result["all"]
    assert result["star"] == result["all"]
    assert result["missing"] == "module 'qsov' has no attribute 'no_such_module'"


def test_numkernel_fork_pool_matches_serial(capsys):
    reports = []
    for workers in ("1", "2"):
        code, out = run_cli(capsys, "verify", "numkernel", "--json", "--workers", workers)
        assert code == 0
        report = json.loads(out)
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
