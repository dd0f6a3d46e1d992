"""Batch command-line interface: fit, eval, optimize, bench.

Flags override --config entries, which override defaults; there is no
interactive mode.  CSV numbers have 17 significant digits.  Repeated runs are
bit-identical for one numpy and scipy build, numpy CPU-feature set, OpenBLAS
kernel set and BLAS thread count (README, "Reproducibility").
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    FULL_NODE_COUNTS,
    ExperimentSpec,
    STUDIES,
    _grid_side,
    _truth_grid,
    franke,
    linear_truth,
    run_study,
)
from .errors import ConfigError, NumericalBreakdownError, ToolkitError
from .geometry import (
    PointSet,
    _csv_header,
    _min_off_diagonal,
    _opened,
    _write_table,
    read_points_csv,
    read_points_table,
)
from .interpolation import _fit, _fit_distances, _predict, evaluate, load_model, save_model
from .kernels import KERNEL_KINDS, KernelSpec
from .objectives import ObjectiveSpec, _require_found, kernel_objective
from .pso import DEFAULT_BOUNDS, PsoConfig, pso_minimize, write_trace_csv

_TRUTHS = {"franke": franke, "linear": linear_truth}


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=KERNEL_KINDS, default="hybrid")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=0.0)


def _add_pso_flags(parser: argparse.ArgumentParser) -> None:
    default = PsoConfig()
    eps_min, eps_max = DEFAULT_BOUNDS[0]
    parser.add_argument("--swarm", type=int, default=default.swarm_size, help="swarm size")
    parser.add_argument("--generations", type=int, default=default.generations)
    parser.add_argument("--c1", type=float, default=default.c1)
    parser.add_argument("--c2", type=float, default=default.c2)
    parser.add_argument("--inertia", type=float, default=default.inertia_w)
    parser.add_argument("--eps-min", type=float, default=eps_min)
    parser.add_argument("--eps-max", type=float, default=eps_max)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridrbf",
        description=(
            "Scattered-data interpolation with a hybrid Gaussian-cubic radial "
            "kernel: fit models, evaluate them, tune parameters, run benchmarks."
        ),
        epilog=(
            "Configuration precedence: command-line flags override entries in "
            "the --config file, which override built-in defaults.  The config "
            "file holds one 'flag = value' pair per line ('#' starts a comment), "
            "keyed by long flag names without the leading dashes."
        ),
    )
    parser.add_argument("--config", help="key = value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a kernel model to a CSV of points")
    p_fit.add_argument("--input", required=True, help="points CSV with a value column")
    p_fit.add_argument("--output", required=True, help="model file to write")
    _add_kernel_flags(p_fit)
    p_fit.add_argument("--augment", action="store_true", help="add a linear polynomial tail")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a fitted model at target points")
    p_eval.add_argument("--model", required=True, help="model file from fit")
    p_eval.add_argument("--input", required=True, help="target points CSV (no value column needed)")
    p_eval.add_argument("--output", required=True, help="CSV of points with predicted values")
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="search kernel parameters with a particle swarm")
    p_opt.add_argument("--input", help="data points CSV with values")
    p_opt.add_argument("--truth", choices=sorted(_TRUTHS), help="synthetic truth surface")
    p_opt.add_argument("--nodes", type=int, help="sample truth on a sqrt(N) x sqrt(N) grid")
    p_opt.add_argument("--objective", choices=("rms", "loocv"), default="loocv")
    p_opt.add_argument("--augment", action="store_true")
    p_opt.add_argument("--grid-n", type=int, default=40, help="evaluation grid side for rms")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--output", required=True, help="best-parameters CSV")
    p_opt.add_argument("--trace", help="per-generation trace CSV")
    _add_pso_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = sub.add_parser("bench", help="run a benchmark study and write reports")
    p_bench.add_argument("--study", required=True, choices=STUDIES)
    p_bench.add_argument("--out", required=True, help="output directory for reports")
    p_bench.add_argument("--nodes", help="comma-separated node counts (perfect squares)")
    p_bench.add_argument("--variants", help="comma-separated kernel variants")
    p_bench.add_argument("--objective", choices=("rms", "loocv"))
    p_bench.add_argument("--grid-n", type=int)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--sweep-points", type=int)
    p_bench.add_argument("--fault-points", type=int)
    p_bench.add_argument("--fault-grid-n", type=int)
    p_bench.add_argument("--full", action="store_true", help="full node-count table")
    _add_pso_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _pso_config(args) -> PsoConfig:
    # Refused because part of the box (epsilon < 0) is invalid, though its part above 0 is valid.
    if not args.eps_min >= 0:
        raise ConfigError(f"--eps-min must be >= 0, got {args.eps_min:g}")
    return PsoConfig(
        swarm_size=args.swarm,
        generations=args.generations,
        c1=args.c1,
        c2=args.c2,
        inertia_w=args.inertia,
        bounds=((args.eps_min, args.eps_max), *DEFAULT_BOUNDS[1:]),
        seed=args.seed,
    )


def cmd_fit(args) -> int:
    points = read_points_csv(args.input)
    if points.values is None:
        raise ConfigError(f"{args.input}: fit needs a value column")
    kernel = KernelSpec(args.kernel, args.epsilon, args.alpha, args.beta)
    # One distance matrix serves the fit, the data-site residual and the
    # minimum separation.
    distances = _fit_distances(points, args.augment)
    model = _fit(points, distances, kernel, args.augment)
    save_model(model, args.output)
    fitted = _predict(model, points.coords, distances)
    residual = float(np.max(np.abs(fitted - points.values)))
    sep = _min_off_diagonal(distances) if points.n >= 2 else float("nan")
    print(f"fit: n={points.n} dim={points.dim} kernel={kernel.to_record()}")
    print(f"min separation: {sep:.6g}")
    print(f"data-site residual max: {residual:.6g}")
    print(f"condition estimate: {model.condition_estimate:.6g}")
    print(f"model written to {args.output}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    coords, _ = read_points_table(args.input)
    values = evaluate(model, coords)  # checks the dimension of empty input too
    overflowed = np.count_nonzero(~np.isfinite(values))
    if overflowed:
        raise NumericalBreakdownError(
            f"{overflowed} of {values.size} evaluated values are not finite"
        )
    _write_table(args.output, _csv_header(coords.shape[1], True), coords, values)
    print(f"evaluated {coords.shape[0]} points; wrote {args.output}")
    return 0


def _optimize_data(args) -> PointSet:
    if args.input:
        points = read_points_csv(args.input)
        if points.values is None:
            raise ConfigError(f"{args.input}: optimize needs a value column")
        return points
    if args.truth and args.nodes:
        return _truth_grid(_grid_side(args.nodes), _TRUTHS[args.truth])
    raise ConfigError("optimize needs --input, or --truth together with --nodes")


def cmd_optimize(args) -> int:
    config = _pso_config(args)
    points = _optimize_data(args)
    ospec = ObjectiveSpec.loocv(args.augment)
    if args.objective == "rms":
        if not args.truth:
            raise ConfigError("rms objective needs --truth to define the error")
        if points.dim < 2:
            raise ConfigError(
                f"rms objective needs points with at least 2 coordinates for "
                f"--truth {args.truth}, got {points.dim}"
            )
        grid = _truth_grid(args.grid_n, _TRUTHS[args.truth], points.dim)
        ospec = ObjectiveSpec.rms(grid, grid.values, args.augment)
    result = pso_minimize(kernel_objective(ospec, points), config)
    _require_found(result.best_value)  # before any file is written
    eps, alpha, beta = result.best_position
    # The parameters go last, so a run that fails leaves none for fit to read.
    if args.trace:
        write_trace_csv(args.trace, result.trace, param_names=("epsilon", "alpha", "beta"))
    _write_table(
        args.output,
        ["epsilon", "alpha", "beta", "cost"],
        result.best_position[None, :],
        np.array([result.best_value]),
    )
    print(
        f"best: epsilon={eps:.6g} alpha={alpha:.6g} beta={beta:.6g} "
        f"cost={result.best_value:.6g}"
    )
    print(f"parameters written to {args.output}")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def cmd_bench(args) -> int:
    # Absent flags leave None: ExperimentSpec takes the study's defaults.
    nodes = variants = None
    if args.nodes:
        nodes = _parse_int_list(args.nodes)
    elif args.full:
        nodes = FULL_NODE_COUNTS
    if args.variants:
        variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    spec = ExperimentSpec(
        study=args.study,
        node_counts=nodes,
        variants=variants,
        objective=args.objective,
        pso=_pso_config(args),
        eval_grid_n=args.grid_n,
        seed=args.seed,
        sweep_points=args.sweep_points,
        fault_points=args.fault_points,
        fault_grid_n=args.fault_grid_n,
        output_dir=args.out,
    )
    report = run_study(spec)
    for path in report.files:
        print(f"wrote {path}")
    failed = [c for c in report.cells if not c.ok]
    if failed:
        for cell in failed:
            print(
                f"cell failed: variant={cell.variant} n={cell.n}: {cell.detail}",
                file=sys.stderr,
            )
        return 1
    return 0


def _collect_options(*parsers: argparse.ArgumentParser) -> dict[str, list]:
    """Map option dest -> actions across ``parsers`` (subparsers not entered)."""
    actions: dict[str, list] = {}
    for current in parsers:
        for action in current._actions:
            if action.option_strings:
                actions.setdefault(action.dest, []).append(action)
    return actions


def _coerce_config_value(action, key: str, value: str, where: str):
    if isinstance(action, argparse._StoreTrueAction):
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"{where}: {key} must be true or false")
        return value.lower() == "true"
    if action.type is not None:
        try:
            value = action.type(value)
        except ValueError:
            raise ConfigError(f"{where}: bad value for {key}: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        expected = ", ".join(map(str, action.choices))
        raise ConfigError(f"{where}: bad value for {key}: {value!r}; expected one of {expected}")
    return value


def _apply_config_defaults(path: str, parser: argparse.ArgumentParser, command: str | None) -> None:
    """Install 'key = value' file entries as defaults of the top-level flags
    and those of ``command`` (flags still win).  A key only another command
    defines is left unused; a key no command defines is an error."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = _collect_options(parser, *commands.choices.values())
    running = [commands.choices[command]] if command in commands.choices else []
    options = _collect_options(parser, *running)
    with _opened(path, "r") as (fh, _):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected 'flag = value'")
            if key in ("config", "help") or key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown flag {key!r}")
            for action in options.get(key, ()):
                action.default = _coerce_config_value(action, key, value, f"{path}:{lineno}")
                action.required = False


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        pre.add_argument("command", nargs="?")
        known, _ = pre.parse_known_args(argv)
        if known.config:
            _apply_config_defaults(known.config, parser, known.command)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
