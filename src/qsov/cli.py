"""Command-line front end: compute tables, factorize, run verification suites.

Exact rationals are serialized as "num" or "num/den" strings and monomial
keys as "a,b", so identical flags produce identical JSON (modulo the
elapsed_ms timing field of suite reports).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import macdonald, qpoly, sov, suites
from .errors import QsovError
from .exact import Pair, QContext, frac, rational_str
from .numconfig import NumericConfig


def _bad(flag: str, accepted: str, text) -> ValueError:
    """A usage error that names the flag, what it accepts and the value given."""
    return ValueError(f"{flag} must be {accepted}, got {str(text)!r}")


def _rational(flag: str, text: str, accepted: str = "a rational"):
    """The flag's value as an exact scalar; a usage error naming flag and value otherwise.

    The text is read as a fractions.Fraction literal whatever the scalar
    backend, so the accepted values and the message do not depend on it.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _bad(flag, f"{accepted} such as 3/2 or -5/7", text) from None
    return frac(value.numerator, value.denominator)


#: What each context flag accepts, and the test its value must pass; argparse
#: stores the value of --s, --g and --xi as args.s, args.g and args.xi.
_CONTEXT_FLAGS = {
    "--s": ("a rational with 0 < s < 1", lambda v: 0 < v < 1),
    "--g": ("a positive integer", lambda v: v >= 1),
    "--xi": ("a nonzero rational", lambda v: v != 0),
}


def _context_value(flag: str, text):
    """The value of --s, --g or --xi (argparse has made --g an int), checked against its range."""
    value = text if flag == "--g" else _rational(flag, text)
    accepted, ok = _CONTEXT_FLAGS[flag]
    if not ok(value):
        raise _bad(flag, accepted, text)
    return value


def _pair(flag: str, text: str) -> Pair:
    try:
        return Pair.parse(text)
    except ValueError:
        raise _bad(flag, "a label pair 'l1,l2' of integers with l1 <= l2", text) from None


def _inputs(args) -> dict:
    """The objects the command's flags describe, built before any computation.

    Every check on a flag value runs here, so main() can report a bad value
    as a usage error that names the flag and the value, and let errors from
    the computations themselves pass.
    """
    out = args.out and os.path.abspath(args.out)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
        raise _bad("--out", "a file path in an existing directory", args.out)
    if args.command == "verify":
        if args.lmax < 0:
            raise _bad("--lmax", "nonnegative (a negative bound checks no label)", args.lmax)
        max_workers = 4 * (os.cpu_count() or 1)
        if not 1 <= args.workers <= max_workers:
            raise _bad("--workers", f"in 1..{max_workers} (4 per CPU)", args.workers)
        # the report's grid echoes the flag strings, so they are only checked here;
        # a repeated value would run every case twice under one id
        for flag in _CONTEXT_FLAGS:
            seen = {}
            for text in getattr(args, flag[2:]) or ():
                value = _context_value(flag, text)
                if value in seen:
                    raise ValueError(f"{flag} {text} repeats the earlier value {seen[value]}")
                seen[value] = text
        grid = {
            "s_values": tuple(args.s) if args.s else suites.DEFAULT_S,
            "g_values": tuple(args.g) if args.g else suites.DEFAULT_G,
            "xi_values": tuple(args.xi) if args.xi else suites.DEFAULT_XI,
        }
        suites.default_contexts(**grid)
        # argparse stores --quad-points, --tol-tight and --tol-loose under the field names
        for name in ("quad_points", "tol_tight", "tol_loose"):
            accepted, ok = NumericConfig.ACCEPTS[name]
            value = getattr(args, name)
            if not ok(value):
                raise _bad("--" + name.replace("_", "-"), accepted, value)
        return grid
    ctx = QContext(**{flag[2:]: _context_value(flag, getattr(args, flag[2:])) for flag in _CONTEXT_FLAGS})
    inputs = {"ctx": ctx, "lam": _pair("--lam", args.lam)}
    if args.command == "compute":
        if args.n < 0:
            raise _bad("--n", "nonnegative", args.n)
        inputs["nu"] = _pair("--nu", args.nu)
        beta = {"t": ctx.t, "q": ctx.q}.get(args.beta)
        inputs["beta"] = _rational("--beta", args.beta, "t, q or a rational") if beta is None else beta
    return inputs


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for k, v in payload.items():
            writer.writerow([k, v])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)


def _write(text: str, out) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly1_table(poly) -> dict:
    return {str(k): rational_str(v) for k, v in sorted(poly.c.items())}


def _poly2_table(poly) -> dict:
    return {f"{a},{b}": rational_str(v) for (a, b), v in sorted(poly.c.items())}


def cmd_compute(args, inputs: dict) -> int:
    ctx, lam = inputs["ctx"], inputs["lam"]
    kind = args.kind
    if kind == "cpoly":
        poly = qpoly.cq_sum(args.n, inputs["beta"], ctx)
        _emit(_poly1_table(poly), args)
    elif kind == "macdonald":
        # the coefficient of m_nu in P_lam is its term at (nu1, nu2), nu1 <= nu2
        P = macdonald.macdonald_poly(lam, ctx).poly
        _emit({f"{a},{b}": rational_str(v) for (a, b), v in sorted(P.c.items()) if a <= b}, args)
    elif kind == "separated":
        _emit(_poly1_table(macdonald.separated_poly(lam, ctx).poly), args)
    elif kind == "basis":
        _emit(_poly2_table(sov.basis(args.basis, inputs["nu"], ctx)), args)
    elif kind == "transition":
        _emit(_poly2_table(sov.transition_row(args.row_kind, lam, ctx)), args)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    return 0


def cmd_factorize(args, inputs: dict) -> int:
    ctx, lam = inputs["ctx"], inputs["lam"]
    try:
        image = sov.separate(lam, ctx)
    except QsovError as exc:
        _emit({"lam": str(lam), "verified": False, "witness": str(exc)}, args)
        return 1
    payload = {
        "lam": str(lam),
        "c": rational_str(image.c),
        "f": _poly1_table(image.f.poly),
        "verified": True,
    }
    _emit(payload, args)
    return 0


def cmd_verify(args, grid: dict) -> int:
    report = suites.run_suite(
        args.suite,
        **grid,
        lmax=args.lmax,
        quad_points=args.quad_points,
        tol_tight=args.tol_tight,
        tol_loose=args.tol_loose,
        seed=args.seed,
        workers=args.workers,
    )
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for case in report["cases"]:
            if case["status"] == "pass":
                residual = case.get("residual")
                extra = f"  residual={residual:.3e}" if residual is not None else ""
                lines.append(f"PASS {case['id']}{extra}")
            else:
                lines.append(f"FAIL {case['id']}  [{case['paper_eq']}]  {case['witness']}")
        passed = sum(1 for c in report["cases"] if c["status"] == "pass")
        lines.append(
            f"{report['status'].upper()}: {passed}/{len(report['cases'])} cases,"
            f" {report['elapsed_ms']} ms"
        )
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0 if report["status"] == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose value-taking flags accept a next token that begins with '-'.

    argparse reads '-1,2' or '-5/7' as an option rather than as the value of
    '--lam' or '--xi'; such a token is joined to its flag ('--lam=-1,2')
    before parsing.  Subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        self._value_flags: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs is None:
            self._value_flags.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = list(sys.argv[1:] if args is None else args)
        joined = []
        while tokens:
            tok = tokens.pop(0)
            if tok == "--":
                joined += [tok, *tokens]
                break
            value_follows = tokens and tokens[0].startswith("-") and tokens[0] != "--"
            if tok in self._value_flags and value_follows:
                tok = f"{tok}={tokens.pop(0)}"
            joined.append(tok)
        return super().parse_known_args(joined, namespace)


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", default="1/2", help="square root of the base q (rational)")
    parser.add_argument("--g", type=int, default=1, help="positive integer coupling")
    parser.add_argument("--xi", default="1", help="nonzero rational shift parameter")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsov",
        description="Exact separation machinery for two-variable symmetric "
        "Laurent polynomials, with numeric kernel verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print coefficient tables")
    compute.add_argument(
        "kind", choices=("cpoly", "macdonald", "separated", "basis", "transition")
    )
    compute.add_argument("--n", type=int, default=0, help="degree for cpoly")
    compute.add_argument("--beta", default="t", help="cpoly parameter: t, q or a rational")
    compute.add_argument("--lam", default="0,0", help="label pair 'l1,l2'")
    compute.add_argument("--nu", default="0,0", help="basis label pair")
    compute.add_argument("--basis", choices=("p", "r", "pt", "rt"), default="p")
    compute.add_argument(
        "--kind",
        dest="row_kind",
        choices=("pi", "rho", "Q", "R", "pit", "rhot", "Qt", "Rt"),
        default="rho",
        help="transition row kind",
    )
    _add_context_flags(compute)
    _add_output_flags(compute)
    compute.set_defaults(func=cmd_compute)

    factorize = sub.add_parser("factorize", help="apply the separating map to P_lam")
    factorize.add_argument("--lam", required=True)
    _add_context_flags(factorize)
    _add_output_flags(factorize)
    factorize.set_defaults(func=cmd_factorize)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=suites.SUITE_NAMES + ("all",))
    verify.add_argument("--s", action="append", help="grid value for s (repeatable)")
    verify.add_argument("--g", action="append", type=int, help="grid value for g")
    verify.add_argument("--xi", action="append", help="grid value for xi")
    verify.add_argument("--lmax", type=int, default=suites.DEFAULT_LMAX,
                        help="label bound for exact grids")
    verify.add_argument("--quad-points", type=int, default=NumericConfig.quad_points)
    verify.add_argument("--tol-tight", type=float, default=NumericConfig.tol_tight)
    verify.add_argument("--tol-loose", type=float, default=NumericConfig.tol_loose)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--json", action="store_true", help="emit the JSON report")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs = _inputs(args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))
    try:
        return args.func(args, inputs)
    except QsovError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
