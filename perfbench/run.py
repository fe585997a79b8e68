"""qsov benchmark: cold-process time to verdict, with an optional layer trace.

    python3 perfbench/run.py --workload verify-exact-grid --seed 1 --seconds 42 --trace 0

Every sample runs ``sample.py`` in a fresh interpreter (see README.md for
why), on inputs drawn from its own seed.  The sample seeds are drawn from
``--seed``, so the same ``--seed`` gives the same sequence of inputs and a
run's median covers several of them (``verify-numeric`` ignores the sample
seed and runs qsov's default input; see workloads.py).  A run first times a few import-only
processes, then starts samples one after another (a closed loop with one
client) until the next one would end after ``--seconds``, with at least one
round.  With ``--trace 1`` a round is an untraced sample followed by a traced
one on the same inputs, and the per-layer metrics of the traced samples are
reported.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

#: Import-only processes per untraced run; their set-up times join the samples'.
PROBES = 5
#: A run must end well inside the 180 s each invocation is allowed.
HARD_LIMIT_S = 170.0


class SampleError(RuntimeError):
    pass


def run_sample(args, deadline: float, seed: int = 0, *, traced: bool = False,
               probe: bool = False) -> dict:
    """Run one sample in a fresh interpreter and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", args.workload, "--seed", str(seed), "--size", args.size,
        "--trace", "1" if traced else "0", "--reference", args.reference,
    ]
    if probe:
        cmd.append("--probe")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the sample and any pool workers it forked
        proc.communicate()
        raise SampleError(f"a sample did not finish within {HARD_LIMIT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if there is one."""
    n = len(values)
    if n < 11:
        return f"tail n/a ({n} samples; a percentile with 10 samples above it needs 11)"
    rank = n - 10
    return f"p{100 * rank // n} {sorted(values)[rank - 1]:.4f}"


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(args) -> tuple[list[dict], list[dict], list[dict]]:
    """(probe results, untraced samples, traced samples) of one run."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    deadline = start + args.seconds
    probes = [] if args.trace else [
        run_sample(args, hard_deadline, probe=True) for _ in range(PROBES)
    ]
    seeds = random.Random(args.seed)
    plain, traced, rounds = [], [], []
    while True:
        began = time.monotonic()
        seed = seeds.randrange(2**31)
        plain.append(run_sample(args, hard_deadline, seed))
        if args.trace:
            traced.append(run_sample(args, hard_deadline, seed, traced=True))
        rounds.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(rounds) > deadline:
            return probes, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="toy runs the same workload at smoke-test size")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="expected-output digests to check against")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsov" / "__init__.py").is_file():
        sys.exit(f"error: no qsov sources under {ROOT / 'src'}; run from a qsov checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        probes, plain, traced = measure(args)
    except SampleError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples)
    failed = sum(r["failed"] for r in samples)
    verdicts = [r["verdict_s"] for r in plain]
    setups = [r["setup_s"] for r in probes + plain]
    values = {
        "verdict_s": statistics.median(verdicts),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace_overhead_ratio"] = values["traced_verdict_s"] / values["verdict_s"]

    env = dict(samples[0]["env"], nproc=os.cpu_count(), git=git_sha(), seed=args.seed,
               workload=args.workload, size=args.size, trace=args.trace)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"verdict_s    median {values['verdict_s']:.4f} s, {tail(verdicts)}, "
          f"{len(verdicts)} cold samples: {', '.join(f'{v:.4f}' for v in verdicts)}")
    print(f"setup_s      median {values['setup_s']:.4f} s over {len(setups)} fresh imports")
    print(f"peak_rss_mb  median {values['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g} ratio")
    for sample in samples:
        for line in sample["failures"]:
            print(f"FAIL {line}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit(f"error: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
