"""The repo's layered benchmark: four workloads, end to end and per layer.

Run one workload::

    python3 layerbench/run.py --workload quote-warm --seed 1 --seconds 20 --trace 0

or all four in order (omit ``--workload``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the loop, an untraced replay and a
traced replay of the same operations and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--write-manifest`` rewrites ``BENCHMARK.json`` from the
declarations in :mod:`metrics`.

Each workload runs in fresh worker processes (:mod:`worker`): set-up is
timed from process spawn to the worker's ``READY`` line, repeated
``SETUP_SAMPLES`` times, and reported as the median.  Everything the run
writes lives under ``.bench_tmp/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import plans  # noqa: E402

#: set-ups per run; the median is ``setup_s``.
SETUP_SAMPLES = 3

#: the whole invocation must finish inside this many seconds.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run or a worker misbehaved."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    # one BLAS thread: the kernels' numpy calls are small, and extra
    # threads only add scheduler noise on a shared box.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def build(deadline: float) -> None:
    """Byte-compile the program so no timed process pays for it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src' / 'repro'}")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def _worker(args, tmp: Path, setup_only: bool, deadline: float):
    """Spawn one worker; returns (setup seconds, result or None)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp),
    ]
    if setup_only:
        command.append("--setup-only")
    tmp.mkdir(parents=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise BenchError(f"{args.workload} worker failed during set-up")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the timed run")
        out, _ = proc.communicate(timeout=remaining)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{args.workload} worker printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def run_workload(args, tmp: Path, deadline: float) -> dict:
    """Set up ``SETUP_SAMPLES`` times, run once, and summarize."""
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        setup_s, _ = _worker(args, tmp / f"setup-{index}", True, deadline)
        setups.append(setup_s)
    setup_s, result = _worker(args, tmp / "run", False, deadline)
    setups.append(setup_s)
    result["setup_s"] = metrics.median(setups)
    result["setup_samples"] = setups
    return result


def result_metrics(result: dict, trace: int) -> dict:
    """The ``metrics`` object of the final JSON line."""
    if trace:
        units = dict(metrics.PER_LAYER)
        values = result["per_layer"]
        return {
            name: {"value": values[name], "unit": units[name]} for name in units
        }
    e2e = result["end_to_end"]
    values = {
        "op_p50_ms": e2e["op_p50_ms"],
        "op_tail_ms": e2e["op_tail_ms"],
        "work_per_s": e2e["work_per_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _, _ in metrics.END_TO_END
    }


def report(workload: str, args, result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}  seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        units = dict(metrics.PER_LAYER)
        for name, value in result["per_layer"].items():
            print(f"  {name:<32} {value:>14.4f} {units[name]}")
    else:
        e2e = result["end_to_end"]
        aliases = metrics.ALIASES[workload]
        n = e2e["samples"]
        rows = (
            ("op_p50_ms", e2e["op_p50_ms"], "ms", f"n={n}"),
            ("op_tail_ms", e2e["op_tail_ms"], "ms",
             f"p{e2e['tail_percentile']:.2f}, n={n}"),
            ("work_per_s", e2e["work_per_s"], "1/s",
             f"median of n={e2e['cycles']} cycles; {e2e['units']} units in {n} ops"),
            ("setup_s", result["setup_s"], "s",
             f"median of n={len(result['setup_samples'])} set-ups"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", "n=1"),
        )
        for name, value, unit, samples in rows:
            alias = aliases.get(name, name)
            print(f"  {name:<12} {value:>12.4f} {unit:<4} ({alias}; {samples})")
        print(f"  {'failed_frac':<12} {failed / attempted:>12.4f}      "
              f"(failed_frac; {failed}/{attempted} ops)")
        tiers = " ".join(f"t{t}:{c}" for t, c in sorted(result["tiers"].items()) if c)
        if tiers:
            print(f"  tier mix: {tiers}")
    for name, value in sorted(result["extras"].items()):
        print(f"  {name}: {value}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plans.WORKLOADS, default=None,
                        help="one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from the declarations and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(metrics.manifest_text())
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
        return 0

    deadline = time.monotonic() + RUN_BUDGET_S
    workloads = [args.workload] if args.workload else list(plans.WORKLOADS)
    work_dir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    correct, attempted, failed, found = True, 0, 0, {}
    try:
        build(deadline)
        for workload in workloads:
            args.workload = workload
            result = run_workload(args, work_dir / workload, deadline)
            report(workload, args, result)
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["failed"] == 0
            values = result_metrics(result, args.trace)
            if len(workloads) == 1:
                found = values
            else:
                found.update({f"{workload}/{k}": v for k, v in values.items()})
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"layerbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": found,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
