"""Every output of the README commands at small sizes, and their SHA-256 digests.

``tests/byte_manifest.sha256`` holds one ``<digest>  <file>`` line per output,
as ``sha256sum`` writes them.  ``tests/test_byte_manifest.py`` regenerates the
outputs in one fresh interpreter and compares their digests with it, so a
change that moves any output byte must change a line of the manifest.

The interpreter runs under the pins of the README's reproducibility contract
(see ``pinned_env``): one BLAS thread, one OpenBLAS kernel set, and numpy's
baseline code for ``exp`` and ``log``.  The bench clock is a counter, so each
timed cell reads the same wall time and the report time columns compare too.

Regenerate the manifest after an intended change with::

    python tests/byte_manifest.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_suffix(".sha256")

# The kernel set OpenBLAS is pinned to.  It needs AVX2 and FMA.
OPENBLAS_CORETYPE = "Haswell"

_SWARM = ["--swarm", "4", "--generations", "2"]


def pinned_env() -> dict[str, str]:
    """The environment of the output run: the caller's, with the BLAS thread
    count, the OpenBLAS kernel set and numpy's dispatched CPU features pinned,
    and this checkout's ``src`` first on the path."""
    from numpy._core import _multiarray_umath

    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OPENBLAS_CORETYPE"] = OPENBLAS_CORETYPE
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_multiarray_umath.__cpu_dispatch__)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def write_outputs() -> None:
    """Run the commands in the current directory; their stdout goes to
    ``stdout.txt``, and each file keeps the name the command gave it."""
    from hybridrbf import bench, cli
    from hybridrbf.bench import ExperimentSpec, franke, run_study
    from hybridrbf.geometry import PointSet, make_halton_set, make_tensor_grid, write_points_csv
    from hybridrbf.kernels import KERNEL_KINDS

    ticks = itertools.count()
    bench.perf_counter = lambda: next(ticks) / 1024.0

    def halton_data(n: int, name: str) -> None:
        pts = make_halton_set(n, 2)
        write_points_csv(name, pts.with_values(franke(pts.coords[:, 0], pts.coords[:, 1])))

    halton_data(40, "data.csv")
    halton_data(300, "data300.csv")
    write_points_csv("targets.csv", PointSet(make_tensor_grid(7, 2).coords))

    def run(*argv: str) -> None:
        code = cli.main(list(argv))
        print(f"exit {code}: {' '.join(argv)}")

    with open("stdout.txt", "w", encoding="utf-8", newline="") as log, contextlib.redirect_stdout(log):
        for kind in KERNEL_KINDS:
            kernel = ["--kernel", kind, "--epsilon", "2.5", "--alpha", "0.9", "--beta", "1e-3"]
            run("fit", "--input", "data.csv", "--output", f"model-{kind}.txt", *kernel)
            run("fit", "--input", "data.csv", "--output", f"model-{kind}-aug.txt", *kernel, "--augment")
        run("fit", "--input", "data300.csv", "--output", "model-300.txt",
            "--epsilon", "3.0", "--alpha", "0.9", "--beta", "1e-6")
        run("eval", "--model", "model-hybrid-aug.txt", "--input", "targets.csv", "--output", "values.csv")
        run("optimize", "--truth", "franke", "--nodes", "25", "--grid-n", "10", "--objective", "rms",
            "--swarm", "6", "--generations", "3", "--output", "best-rms.csv", "--trace", "trace-rms.csv")
        run("optimize", "--input", "data.csv", "--objective", "loocv", "--seed", "1",
            "--swarm", "6", "--generations", "3", "--output", "best-loocv.csv", "--trace", "trace-loocv.csv")
        run("optimize", "--input", "data.csv", "--objective", "loocv", "--augment", *_SWARM,
            "--output", "best-loocv-aug.csv", "--trace", "trace-loocv-aug.csv")
        studies = [
            ("linear-reproduction", "--nodes", "9,16"),
            ("franke", "--nodes", "16,25", "--sweep-points", "3"),
            ("franke", "--nodes", "16,25", "--objective", "loocv", "--sweep-points", "3"),
            ("spectra", "--nodes", "16,25", "--variants", ",".join(bench.VARIANTS)),
            ("spectra", "--nodes", "16", "--variants", "hybrid,hybrid+poly", "--objective", "loocv"),
            ("objective-comparison", "--nodes", "16"),
            ("fault", "--fault-points", "30", "--fault-grid-n", "11"),
            ("scaling", "--nodes", "16,64"),
        ]
        for study, *flags in studies:
            swarm = [] if study == "scaling" else _SWARM
            run("bench", "--study", study, "--out", "reports", *flags, *swarm)
        # Pinned spectra are set in the library only.
        pinned = ExperimentSpec(
            study="spectra",
            node_counts=(16, 25),
            variants=bench.VARIANTS,
            params_per_n={16: (2.0, 0.8, 1e-4), 25: (3.0, 0.9, 1e-6)},
            output_dir="reports",
        )
        for path in run_study(pinned).files:
            print(f"wrote {path.as_posix()}")


def produce(out: Path) -> None:
    """Write the outputs into ``out`` in one fresh interpreter."""
    subprocess.run(
        [sys.executable, __file__, "--outputs"],
        cwd=out,
        env=pinned_env(),
        check=True,
        timeout=300,
    )


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def format_manifest(table: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(table.items()))


def read_manifest() -> dict[str, str]:
    table = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        table[name] = digest
    return table


if __name__ == "__main__":
    if sys.argv[1:] == ["--outputs"]:
        write_outputs()
        sys.exit()
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/byte_manifest.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp))
        with open(MANIFEST, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_manifest(digests(Path(tmp))))
    print(f"wrote {MANIFEST}")
