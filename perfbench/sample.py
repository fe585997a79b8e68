"""One cold-process sample of a qsov workload.

``run.py`` starts this script in a fresh interpreter for every sample, so the
process-wide caches (``sov.basis``, ``sov._poch``) start cold, as they do for a
user of ``qsov verify``.  The script times ``import qsov.cli``, runs the workload
through public entry points only, checks the outputs against the stored
references and prints one JSON object as its last line of output.

    python3 perfbench/sample.py --workload separate-wide --seed 1 --size toy
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"


def _attempt(fn, *args):
    """(value, None) or (None, error text): every failure becomes a record."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not raised
        return None, f"{type(exc).__name__}: {exc}"


def run_verify(qsov, workload: str, size: str, seed: int, reference: dict):
    """Run each suite through ``qsov.cli.main``; operations are cases plus one check per suite."""
    SCRATCH.mkdir(exist_ok=True)
    runs = [
        (suite, argv, SCRATCH / f"{os.getpid()}-{suite}.json")
        for suite, argv in wl.verify_argv(workload, size, seed)
    ]
    codes = []
    start = time.perf_counter()
    for _, argv, out in runs:
        code, err = _attempt(qsov.cli.main, argv + ["--out", str(out)])
        codes.append(code if err is None else err)
    verdict_s = time.perf_counter() - start

    attempted = failed = 0
    failures = []
    expected = reference["verify"][size]
    for (suite, _, out), code in zip(runs, codes):
        try:
            cases = json.loads(out.read_text())["cases"]
            out.unlink()
        except (OSError, ValueError, KeyError):
            cases = []
        bad = [c["id"] for c in cases if c["status"] != "pass"]
        attempted += len(cases) + 1
        failed += len(bad)
        failures += [f"{suite}: case {case_id} failed" for case_id in bad]
        ref = expected.get(suite, {})
        same = wl.cases_digest(cases) == ref.get("sha256")
        if code != 0 or not same:
            failed += 1
            failures.append(
                f"{suite}: exit {code}; {len(cases)} cases, {ref.get('cases')} in the reference;"
                f" case list {'matches' if same else 'differs from'} the reference"
            )
    return verdict_s, attempted, failed, failures


def run_wide(qsov, size: str, seed: int, reference: dict):
    """separate, then both inverse routes, per label; three operations per label."""
    from qsov.exact import Pair, QContext, frac, rational_str

    labels = wl.wide_labels(size, seed)
    outcomes = []  # (image or None, {operation: problem or None})
    start = time.perf_counter()
    for (s, g, xi), (l1, l2) in labels:
        ctx = QContext(s=frac(s), g=g, xi=frac(xi))
        lam = Pair(l1, l2)
        P = qsov.macdonald.macdonald_poly(lam, ctx).poly
        image, err = _attempt(qsov.sov.separate, lam, ctx)
        checks = {"separate": err}
        for what, inverse in (
            ("inverse", qsov.sov.apply_M_inverse),
            ("inverse-qdiff", qsov.sov.apply_M_inverse_qdiff),
        ):
            if image is None:
                checks[what] = "not run: separate failed"
                continue
            back, err = _attempt(inverse, image.poly, ctx)
            checks[what] = err or (None if back == P else "round trip does not return P_lam")
        outcomes.append((image, checks))
    verdict_s = time.perf_counter() - start

    failures = []
    for (ctx, lam), (image, checks) in zip(labels, outcomes):
        key = wl.wide_key(ctx, lam)
        if image is not None:
            f = {str(k): rational_str(v) for k, v in image.f.poly.c.items()}
            if wl.image_digest(rational_str(image.c), f) != reference["separate"].get(key):
                checks["separate"] = "image differs from the reference"
        failures += [f"{key}: {what}: {problem}" for what, problem in checks.items() if problem]
    return verdict_s, 3 * len(labels), len(failures), failures


def layer_metrics(tracer, basis, verdict_s: float) -> dict:
    """Every per-layer value of one traced sample, keyed by metric name."""
    out = {}
    for name, (calls, self_s, _) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    by_module = tracer.self_by_module()
    for mod, self_s in by_module.items():
        out[f"{mod}.self_s"] = self_s
    info = basis.cache_info()
    out["sov.basis.hit_ratio"] = info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
    out["exact.Laurent2.mul.term_products"] = tracer.stats["exact.Laurent2.mul"][2]
    out["traced_verdict_s"] = verdict_s
    out["untraced_s"] = verdict_s - sum(by_module.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="seed of this sample's inputs")
    parser.add_argument("--size", choices=wl.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--probe", action="store_true", help="only time the import")
    args = parser.parse_args(argv)
    reference = json.loads(Path(args.reference).read_text())

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qsov.cli  # what the ``qsov`` console script imports

    setup_s = time.perf_counter() - start
    import numpy

    if Path(qsov.__file__).resolve().parent != (SRC / "qsov").resolve():
        sys.exit(f"qsov was imported from {qsov.__file__}, not from {SRC}")
    result = {
        "setup_s": setup_s,
        "env": {
            "backend": f"{type(qsov.exact.ZERO).__module__}.{type(qsov.exact.ZERO).__name__}",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if not args.probe:
        basis = qsov.sov.basis
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(qsov)
        if args.workload == "separate-wide":
            outcome = run_wide(qsov, args.size, args.seed, reference)
        else:
            outcome = run_verify(qsov, args.workload, args.size, args.seed, reference)
        verdict_s, attempted, failed, failures = outcome
        usage = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        result.update(
            verdict_s=verdict_s,
            peak_rss_mb=usage / 1024.0,
            attempted=attempted,
            failed=failed,
            failures=failures[:20],
        )
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, basis, verdict_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
