import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pso_oracle
from hybridrbf import ConfigError, PsoConfig, pso_minimize
from hybridrbf.pso import OptimizationTrace, read_trace_csv, write_trace_csv


def sphere(x) -> float:
    return float(np.sum(np.asarray(x) ** 2))


def recording(objective):
    """objective, and the list of copies of every position it receives."""
    seen = []

    def recorded(x):
        seen.append(np.array(x))
        return objective(x)

    return recorded, seen


BOX3 = ((-5.0, 5.0), (-5.0, 5.0), (-5.0, 5.0))


def violations(**settings) -> list[str]:
    """The violations one ConfigError names for a PsoConfig of ``settings``."""
    try:
        PsoConfig(**settings)
    except ConfigError as exc:
        return str(exc).split("; ")
    return []


def test_default_config_is_stable():
    assert violations() == []
    assert [f.name for f in dataclasses.fields(PsoConfig)] == [
        "swarm_size", "generations", "c1", "c2", "inertia_w", "bounds", "seed"
    ]


def test_validate_flags_learning_factor_sum():
    assert any("c1 + c2 < 4" in v for v in violations(c1=3.0, c2=2.0))


def test_validate_flags_inertia_bounds():
    found = violations(c1=1.0, c2=1.0, inertia_w=1.5)
    assert any("(c1 + c2)/2 - 1 < w < 1" in v for v in found)


def test_validate_flags_bad_bounds_and_sizes():
    assert len(violations(swarm_size=0, generations=0, bounds=((1.0, 0.0),))) == 3
    assert violations(swarm_size=4.5, generations=2.0, seed=1.5) == [
        "swarm_size must be an integer, got 4.5",
        "generations must be an integer, got 2.0",
        "seed must be an integer, got 1.5",
    ]
    assert violations(swarm_size="4", seed=-1) == [
        "swarm_size must be an integer, got '4'",
        "seed must be >= 0, got -1",
    ]
    assert violations(swarm_size=np.int64(4), generations=np.int32(2), seed=np.uint64(7)) == []
    wide = ((0.01, np.inf), (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
            (-np.inf, -np.inf), (0.0, 0.0))
    assert violations(bounds=wide) == [
        "bounds[0] from 0.01 to inf has no finite width",
        "bounds[1] from -1e+308 to 1e+308 has no finite width",
        "bounds[2] from -1e+308 to 1e+308 has no finite width",
        "bounds[3] from -inf to -inf has no finite width",
    ]


def test_config_stores_canonical_values():
    # counts as int, factors as float, bounds as a tuple of float pairs, so
    # configs that search alike are equal, hash alike and digest alike
    given = PsoConfig(
        swarm_size=np.int64(4), generations=np.int32(2), c1=1, c2=np.float32(1.5),
        inertia_w=0.5, bounds=[[0.01, 20], np.array([0, 1])], seed=np.uint64(7),
    )
    assert given == PsoConfig(4, 2, 1.0, 1.5, 0.5, ((0.01, 20.0), (0.0, 1.0)), 7)
    assert hash(given) == hash(PsoConfig(4, 2, 1.0, 1.5, 0.5, ((0.01, 20.0), (0.0, 1.0)), 7))
    for name in ("swarm_size", "generations", "seed"):
        assert type(getattr(given, name)) is int
    for name in ("c1", "c2", "inertia_w"):
        assert type(getattr(given, name)) is float
    assert type(given.bounds) is tuple
    assert all(type(pair) is tuple and list(map(type, pair)) == [float, float]
               for pair in given.bounds)
    # a value that is no number is one ConfigError beside the others
    assert violations(bounds=((0, "a"),)) == [
        "bounds must be (lower, upper) pairs of numbers, got ((0, 'a'),)"
    ]
    assert violations(bounds=((0.0, 1.0, 2.0),), c1="x", seed=-1) == [
        "c1 must be a number, got 'x'",
        "seed must be >= 0, got -1",
        "bounds must be (lower, upper) pairs of numbers, got ((0.0, 1.0, 2.0),)",
    ]
    assert violations(inertia_w=None, bounds=5) == [
        "inertia_w must be a number, got None",
        "bounds must be (lower, upper) pairs of numbers, got 5",
    ]


def test_pso_minimize_rejects_invalid_config():
    # every violation on one line, as the command line prints it, raised
    # where the config is built or replaced, so no invalid config reaches
    # pso_minimize
    for settings, message in (
        ({"c1": 3.0, "c2": 2.0}, r"^stability requires 0 < c1 \+ c2 < 4, [^\n]*; stability"),
        ({"swarm_size": 4.5}, r"^swarm_size must be an integer, got 4\.5$"),
        ({"generations": 2.0}, r"^generations must be an integer, got 2\.0$"),
        ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
        ({"bounds": ((0.01, np.inf),)}, r"^bounds\[0\] from 0\.01 to inf has no finite"),
    ):
        with pytest.raises(ConfigError, match=message):
            PsoConfig(**settings)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(PsoConfig(), **settings)


def test_sphere_convergence():
    config = PsoConfig(swarm_size=20, generations=100, bounds=BOX3, seed=7)
    result = pso_minimize(sphere, config)
    assert result.best_value <= 1e-4


def test_constant_objective_returns_initial_particle():
    config = PsoConfig(swarm_size=8, generations=5, bounds=BOX3, seed=2)
    objective, seen = recording(lambda x: 7.0)
    result = pso_minimize(objective, config)
    assert result.best_value == 7.0
    initial = seen[: config.swarm_size]
    assert any(np.array_equal(result.best_position, row) for row in initial)


def test_deterministic_bitwise():
    config = PsoConfig(swarm_size=12, generations=20, bounds=BOX3, seed=123)
    objective_a, seen_a = recording(sphere)
    objective_b, seen_b = recording(sphere)
    a = pso_minimize(objective_a, config)
    b = pso_minimize(objective_b, config)
    assert np.array_equal(seen_a, seen_b)
    assert np.array_equal(a.trace.gbest_val, b.trace.gbest_val)
    assert np.array_equal(a.best_position, b.best_position)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gbest_monotone_nonincreasing(seed):
    config = PsoConfig(swarm_size=10, generations=30, bounds=BOX3, seed=seed)
    result = pso_minimize(sphere, config)
    assert np.all(np.diff(result.trace.gbest_val) <= 0.0)
    assert len(result.trace.gbest_val) == config.generations + 1


def test_positions_stay_in_bounds():
    # a box whose optimum sits outside, to force clamping
    config = PsoConfig(
        swarm_size=15, generations=25, bounds=((1.0, 2.0), (1.0, 2.0)), seed=5
    )
    objective, seen = recording(sphere)
    result = pso_minimize(objective, config)
    lo = np.array([1.0, 1.0])
    hi = np.array([2.0, 2.0])
    assert len(seen) == config.swarm_size * (config.generations + 1)
    assert np.all(np.array(seen) >= lo) and np.all(np.array(seen) <= hi)
    assert np.all(result.best_position >= lo) and np.all(result.best_position <= hi)
    assert result.best_value == pytest.approx(2.0, rel=1e-12)


@st.composite
def _stable_runs(draw):
    """A random stable config, bounds (some of zero width) and a target the
    box may exclude on either side."""
    dims = draw(st.integers(1, 4))
    lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=dims, max_size=dims))
    widths = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=dims, max_size=dims)
    )
    c1 = draw(st.floats(0.0, 2.0))
    c2 = draw(st.floats(0.0, 2.0))
    lower_w = (c1 + c2) / 2.0 - 1.0
    w = lower_w + draw(st.floats(0.01, 0.99)) * (1.0 - lower_w)
    try:
        config = PsoConfig(
            swarm_size=draw(st.integers(1, 12)),
            generations=draw(st.integers(1, 8)),
            c1=c1,
            c2=c2,
            inertia_w=w,
            bounds=tuple((lo, lo + width) for lo, width in zip(lows, widths)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
    except ConfigError:
        assume(False)  # c1 + c2 = 0, or w rounded onto a stability bound
    target = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=dims, max_size=dims)))
    return config, target


@settings(max_examples=60, deadline=None)
@given(_stable_runs())
def test_positions_stay_in_random_bounds_property(run):
    config, target = run
    objective, seen = recording(lambda x: float(np.sum((x - target) ** 2)))
    result = pso_minimize(objective, config)
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    seen = np.array(seen)
    assert seen.shape == ((config.generations + 1) * config.swarm_size, lo.size)
    assert np.all(seen >= lo) and np.all(seen <= hi)
    assert np.all(result.best_position >= lo) and np.all(result.best_position <= hi)


def _objective(kind, target):
    """Costs with and without ties: smooth, rounded, constant, or a 1e30
    sentinel plateau everywhere but near the target."""
    def squared(x):
        return float(np.sum((x - target) ** 2))

    if kind == "smooth":
        return squared
    if kind == "rounded":
        return lambda x: float(np.round(squared(x) / 10.0))
    if kind == "constant":
        return lambda x: 7.0
    return lambda x: squared(x) if squared(x) < 30.0 else 1e30


def _same_run(config, objective):
    """The whole-swarm step and the per-particle oracle agree bit for bit on
    the trace, the result and every position passed to the objective."""
    fast, seen_fast = recording(objective)
    slow, seen_slow = recording(objective)
    got = pso_minimize(fast, config)
    want = pso_oracle.pso_minimize(slow, config)
    assert _bits(got.trace.gbest_val) == _bits(want.trace.gbest_val)
    assert _bits(got.trace.gbest_pos) == _bits(want.trace.gbest_pos)
    assert _bits(got.best_position) == _bits(want.best_position)
    assert _bits(np.float64(got.best_value)) == _bits(np.float64(want.best_value))
    assert type(got.best_value) is float
    assert _bits(np.array(seen_fast)) == _bits(np.array(seen_slow))


@settings(max_examples=250, deadline=None)
@given(_stable_runs(), st.sampled_from(["smooth", "rounded", "constant", "sentinel"]))
def test_whole_swarm_step_bit_equal_to_per_particle_oracle(run, kind):
    config, target = run
    _same_run(config, _objective(kind, target))


@pytest.mark.parametrize("kind", ["constant", "sentinel", "rounded"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ties_pick_the_oracle_best(kind, seed):
    # all ties, plateaus of 1e30 that most particles never leave, and costs
    # rounded so that equal personal bests improve on the global best together
    config = PsoConfig(swarm_size=12, generations=8, bounds=BOX3, seed=seed)
    _same_run(config, _objective(kind, np.array([4.0, -4.0, 4.5])))


def test_beats_random_search_on_matched_budget():
    wins = 0
    for seed in range(10):
        config = PsoConfig(swarm_size=20, generations=50, bounds=BOX3, seed=seed)
        result = pso_minimize(sphere, config)
        budget = config.swarm_size * (config.generations + 1)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        samples = rng.uniform(-5.0, 5.0, size=(budget, 3))
        random_best = float(np.min(np.sum(samples**2, axis=1)))
        wins += result.best_value <= random_best
    assert wins >= 9


def test_trace_csv_round_trip():
    config = PsoConfig(swarm_size=6, generations=8, bounds=BOX3, seed=9)
    result = pso_minimize(sphere, config)
    buf = io.StringIO()
    write_trace_csv(buf, result.trace, param_names=("a", "b", "c"))
    buf.seek(0)
    again = read_trace_csv(buf)
    assert np.array_equal(again.gbest_val, result.trace.gbest_val)
    assert np.array_equal(again.gbest_pos, result.trace.gbest_pos)


def _trace_oracle_text(trace, names):
    """The csv.writer loop the row-template trace writer replaced."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["generation", "gbest_val", *names])
    for gen, (val, pos) in enumerate(zip(trace.gbest_val, trace.gbest_pos)):
        writer.writerow([gen, "%.17g" % val, *("%.17g" % p for p in pos)])
    return buf.getvalue()


@pytest.mark.parametrize("names", [("a", "b", "c"), ("eps, scaled", 'say "b"', "")])
def test_trace_csv_bytes_equal_row_writer_oracle(tmp_path, names):
    config = PsoConfig(swarm_size=6, generations=12, bounds=BOX3, seed=4)
    result = pso_minimize(sphere, config)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, result.trace, param_names=names)
    assert path.read_bytes() == _trace_oracle_text(result.trace, names).encode("utf-8")


@pytest.mark.parametrize(
    "body,lineno",
    [("0,1.5,0.1,0.2\n1,oops,0.1,0.2\n", 3), ("0,1.5,0.1,0.2,9\n", 2)],
)
def test_trace_csv_rejects_bad_row_with_line_number(tmp_path, body, lineno):
    path = tmp_path / "trace.csv"
    path.write_text("generation,gbest_val,a,b\n" + body)
    with pytest.raises(ConfigError, match=f"trace.csv:{lineno}: "):
        read_trace_csv(path)


def test_trace_csv_rejects_wrong_names():
    config = PsoConfig(swarm_size=4, generations=2, bounds=BOX3, seed=1)
    result = pso_minimize(sphere, config)
    with pytest.raises(ConfigError):
        write_trace_csv(io.StringIO(), result.trace, param_names=("onlyone",))


@pytest.mark.parametrize(
    "text", ["", "generation,gbest_val\r\n", "x1,x2,x3\r\n0,1,2\r\n", "gen,gbest_val,epsilon\r\n"]
)
def test_trace_csv_refuses_a_file_without_the_trace_header(text):
    message = r"^not a trace CSV \(expected generation,gbest_val,\.\.\. header\)$"
    with pytest.raises(ConfigError, match=message):
        read_trace_csv(io.StringIO(text))


def test_trace_csv_skips_whitespace_only_lines_as_points_files_do(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("generation,gbest_val,a,b\n0,1.5,0.1,0.2\n   \n\n1,1.25,0.3,0.4\n")
    trace = read_trace_csv(path)
    assert trace.gbest_val.tolist() == [1.5, 1.25]
    assert trace.gbest_pos.tolist() == [[0.1, 0.2], [0.3, 0.4]]


def test_trace_csv_rejects_non_numeric_generation_with_line_number(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("generation,gbest_val,a\n0,1.5,0.1\nfirst,1.25,0.3\n")
    with pytest.raises(ConfigError, match="trace.csv:3: non-numeric field"):
        read_trace_csv(path)


def test_trace_csv_errors_name_the_path_as_points_files_do(tmp_path):
    (tmp_path / "trace.csv").write_text("generation,gbest_val,a\n0,1.5\n")
    with pytest.raises(ConfigError) as err:
        read_trace_csv(f"{tmp_path}/./trace.csv")
    assert str(err.value) == f"{tmp_path / 'trace.csv'}:2: expected 3 fields, got 2"


def test_header_only_trace_keeps_its_dimensions():
    trace = read_trace_csv(io.StringIO("generation,gbest_val,a,b,c\r\n", newline=""))
    assert trace.gbest_val.shape == (0,)
    assert trace.gbest_pos.shape == (0, 3)


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308]),
)


@st.composite
def _named_traces(draw):
    dims = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 6))
    trace = OptimizationTrace(
        gbest_val=draw(arrays(np.float64, (rows,), elements=_finite)),
        gbest_pos=draw(arrays(np.float64, (rows, dims), elements=_finite)),
    )
    names = draw(st.lists(st.text('ab ,"\'', max_size=5), min_size=dims, max_size=dims))
    return trace, names


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=150, deadline=None)
@given(_named_traces())
def test_trace_csv_property_bytes_and_bit_exact_round_trip(case):
    trace, names = case
    buf = io.StringIO(newline="")
    write_trace_csv(buf, trace, param_names=names)
    text = buf.getvalue()
    assert text == _trace_oracle_text(trace, names)
    assert next(csv.reader(io.StringIO(text, newline=""))) == ["generation", "gbest_val", *names]
    again = read_trace_csv(io.StringIO(text, newline=""))
    assert _bits(again.gbest_val) == _bits(trace.gbest_val)
    assert _bits(again.gbest_pos) == _bits(trace.gbest_pos)
