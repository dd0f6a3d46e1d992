"""Benchmark runner for hybridrbf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from ``perfbench/workloads.py`` against the package under
``src/`` of the checkout this file sits in.  With ``--trace 0`` it reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with provenance, goes to ``perfbench/out/``.

``--workload all`` runs every workload, untraced and traced, each in its own
process (so peak memory is per workload), prints every metric with its unit
and writes the combined records to ``perfbench/out/all-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 600


def _pin_blas_threads() -> None:
    """Run BLAS on one thread.

    On a 2-CPU machine the second OpenBLAS thread made an RMS trial at
    N = 625 about 1.5x slower and its time more variable, so one thread
    measures the program rather than thread contention.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_package() -> None:
    """Import hybridrbf from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import hybridrbf
    import hybridrbf.cli  # noqa: F401

    if Path(hybridrbf.__file__).resolve().parent != SRC / "hybridrbf":
        raise ImportError(f"hybridrbf was imported from {hybridrbf.__file__}, not {SRC}")


def _run_all(names, seed: int, seconds: int) -> int:
    records, ok = [], True
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            path = OUT / f"{name}-seed{seed}-trace{trace}.json"
            if proc.returncode != 0 or not path.is_file():
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            record = json.loads(path.read_text())
            records.append(record)
            ok = ok and record["correct"]
            status = "ok" if record["correct"] else "FAILED: " + "; ".join(record["failures"])
            print(f"{name} trace={trace} {status} "
                  f"(attempted {record['attempted']}, failed {record['failed']})")
            for metric, m in record["metrics"].items():
                print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in records) or 1,
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records if not r["trace"]
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybridrbf" / "__init__.py").is_file():
        print(f"error: no hybridrbf package under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    _import_package()
    from harness import result_line, run_workload
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return _run_all(list(WORKLOADS), args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for metric, m in record["metrics"].items():
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
