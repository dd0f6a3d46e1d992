import csv
import dataclasses
import io
import math
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pso_oracle
from blas_threads import blas_counts
from hybridrbf import ConfigError, PsoConfig, ToolkitError, pso_minimize
from hybridrbf import pso as pso_module
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
    assert violations(bounds=()) == ["bounds must hold at least one pair, got ()"]
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


@contextmanager
def pool_forced(cpus: int = 3):
    """Searches pool every trial after particles 0 and 1, on min(cpus,
    swarm) threads, however cheap their trials."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pso_module, "_POOL_MIN_TRIAL_S", 0.0)
        patch.setattr(pso_module, "_available_cpus", lambda: cpus)
        yield


def _generations(seen, swarm):
    """Each generation's positions as a sorted list of their bytes."""
    return [sorted(x.tobytes() for x in seen[g : g + swarm]) for g in range(0, len(seen), swarm)]


def _same_run(config, objective, pooled=False, cpus=3):
    """The whole-swarm step and the per-particle oracle agree bit for bit on
    the trace, the result and every position passed to the objective: in
    order when ``pooled`` is False, else as each generation's multiset.
    True forces the pool on up to ``cpus`` threads; False and None leave
    the schedule as the caller set it."""
    fast, seen_fast = recording(objective)
    slow, seen_slow = recording(objective)
    with pool_forced(cpus) if pooled else nullcontext():
        got = pso_minimize(fast, config)
    want = pso_oracle.pso_minimize(slow, config)
    assert _bits(got.trace.gbest_val) == _bits(want.trace.gbest_val)
    assert _bits(got.trace.gbest_pos) == _bits(want.trace.gbest_pos)
    assert _bits(got.best_position) == _bits(want.best_position)
    assert _bits(np.float64(got.best_value)) == _bits(np.float64(want.best_value))
    assert type(got.best_value) is float
    if pooled is False:
        assert _bits(np.array(seen_fast)) == _bits(np.array(seen_slow))
    else:
        swarm = config.swarm_size
        assert _generations(seen_fast, swarm) == _generations(seen_slow, swarm)


@settings(max_examples=250, deadline=None)
@given(_stable_runs(), st.sampled_from(["smooth", "rounded", "constant", "sentinel"]))
def test_whole_swarm_step_bit_equal_to_per_particle_oracle(run, kind):
    config, target = run
    _same_run(config, _objective(kind, target))


def test_a_position_on_a_signed_zero_bound_keeps_its_bits():
    # +0.0 lies in [-0.0, 5e-324]; np.clip returned it as -0.0 for one row
    # and as +0.0 for the whole swarm
    config = PsoConfig(
        swarm_size=2, generations=1, c1=0.0, c2=1.0, inertia_w=0.25,
        bounds=((-0.0, 5e-324),), seed=1,
    )
    _same_run(config, sphere)


@pytest.mark.parametrize("kind", ["constant", "sentinel", "rounded"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ties_pick_the_oracle_best(kind, seed):
    # all ties, plateaus of 1e30 that most particles never leave, and costs
    # rounded so that equal personal bests improve on the global best together
    config = PsoConfig(swarm_size=12, generations=8, bounds=BOX3, seed=seed)
    _same_run(config, _objective(kind, np.array([4.0, -4.0, 4.5])))


@settings(max_examples=100, deadline=None)
@given(_stable_runs(), st.sampled_from(["smooth", "rounded", "constant", "sentinel"]))
def test_pooled_generations_bit_equal_to_per_particle_oracle(run, kind):
    config, target = run
    _same_run(config, _objective(kind, target), pooled=True)


def test_a_pool_wider_than_the_host_under_fast_switching_runs_each_trial_once():
    # Eight threads on a 2-vCPU host, switching every microsecond: a lost
    # or repeated index would change a generation's multiset or the trace.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        config = PsoConfig(swarm_size=16, generations=10, bounds=BOX3, seed=11)
        _same_run(config, _objective("rounded", np.array([1.0, -2.0, 0.5])), True, cpus=8)
    finally:
        sys.setswitchinterval(interval)


def _oracle_positions(config):
    """Every position the oracle passes to its objective, in call order."""
    objective, seen = recording(sphere)
    pso_oracle.pso_minimize(objective, config)
    return seen


def test_a_cheap_objective_runs_in_index_order_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(pso_module, "_available_cpus", lambda: 4)
    config = PsoConfig(swarm_size=8, generations=4, bounds=BOX3, seed=3)
    threads = []

    def objective(x):
        threads.append(threading.current_thread())
        return sphere(x)

    recorded, seen = recording(objective)
    pso_minimize(recorded, config)
    assert _bits(np.array(seen)) == _bits(np.array(_oracle_positions(config)))
    assert threads == [threading.current_thread()] * len(seen)


@contextmanager
def scripted_clock(*stamps, cpus: int = 4):
    """``pso.perf_counter`` returns ``stamps`` in turn and must read them
    all; ``ThreadPoolExecutor`` records each pool a search opens; the host
    has ``cpus`` CPUs."""
    import concurrent.futures

    left, pools = list(stamps), []
    real = concurrent.futures.ThreadPoolExecutor

    def executor(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pso_module, "perf_counter", lambda: left.pop(0))
        patch.setattr(pso_module, "_available_cpus", lambda: cpus)
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", executor)
        yield pools
    assert left == []


def _thread_log(objective):
    """objective, and the list of (thread, position bytes) of every call.
    After particles 0 and 1, timed on the calling thread, a call there waits
    (up to 10 s) until a pool thread has run a trial, so a pooled search is
    seen to use its pool."""
    caller, helped, log = threading.current_thread(), threading.Event(), []

    def logged(x):
        log.append((threading.current_thread(), x.tobytes()))
        if threading.current_thread() is not caller:
            helped.set()
        elif len(log) > 2:
            helped.wait(10.0)
        return objective(x)

    return logged, log


def test_two_slow_trials_pool_the_rest_of_the_first_generation():
    config = PsoConfig(swarm_size=6, generations=3, bounds=BOX3, seed=2)
    first = [x.tobytes() for x in _oracle_positions(config)[:6]]
    objective, log = _thread_log(sphere)
    slow = pso_module._POOL_MIN_TRIAL_S
    with scripted_clock(0.0, slow, 2 * slow, cpus=2) as pools:
        _same_run(config, objective, pooled=None)
    caller = threading.current_thread()
    assert len(pools) == 1
    assert log[:2] == [(caller, first[0]), (caller, first[1])]
    gen0 = log[: config.swarm_size]
    assert sorted(x for _, x in gen0[2:]) == sorted(first[2:])
    assert any(thread is not caller for thread, _ in gen0[2:])


@pytest.mark.parametrize(
    "stamps", ((0.0, 1.0, 1.0 + 1e-6), (0.0, 1e-6, 1.0)), ids=("slow-first", "slow-second")
)
def test_one_cheap_timed_trial_keeps_the_search_serial(stamps):
    config = PsoConfig(swarm_size=8, generations=4, bounds=BOX3, seed=3)
    threads = []

    def objective(x):
        threads.append(threading.current_thread())
        return sphere(x)

    with scripted_clock(*stamps) as pools:
        _same_run(config, objective)
    assert pools == []
    assert set(threads) == {threading.current_thread()}


@pytest.mark.parametrize("swarm", (1, 2))
def test_a_swarm_of_one_or_two_times_every_first_trial(swarm):
    config = PsoConfig(swarm_size=swarm, generations=4, bounds=BOX3, seed=6)
    threads = []

    def objective(x):
        threads.append(threading.current_thread())
        return sphere(x)

    with scripted_clock(*(0.0, 1.0, 2.0)[: swarm + 1], cpus=3) as pools:
        _same_run(config, objective, pooled=None)
    assert len(pools) == swarm - 1
    assert threads[:swarm] == [threading.current_thread()] * swarm


def test_a_pooled_search_runs_at_one_blas_thread_and_leaves_no_thread_behind():
    counts, before, active = [], blas_counts(), threading.active_count()
    objective, log = _thread_log(lambda x: counts.append(blas_counts()) or sphere(x))
    config = PsoConfig(swarm_size=4, generations=3, bounds=BOX3, seed=8)
    with pool_forced(cpus=2):
        result = pso_minimize(objective, config)
    assert len({thread for thread, _ in log}) == 2
    assert counts == [[1, 1]] * 16
    assert blas_counts() == before
    assert threading.active_count() == active
    want = pso_oracle.pso_minimize(sphere, config)
    assert _bits(result.trace.gbest_val) == _bits(want.trace.gbest_val)


def test_with_one_available_cpu_no_thread_starts():
    active, threads = threading.active_count(), []

    def objective(x):
        threads.append((threading.current_thread(), threading.active_count()))
        return sphere(x)

    with pool_forced(cpus=1):
        pso_minimize(objective, PsoConfig(swarm_size=6, generations=3, bounds=BOX3))
    assert threads == [(threading.current_thread(), active)] * 24


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_a_non_finite_cost_is_one_error_naming_the_particle_and_position(bad):
    config = PsoConfig(swarm_size=5, generations=3, bounds=((-1.0, 1.0),))
    first = next(i for i, x in enumerate(_oracle_positions(config)) if x[0] > 0)
    position = _oracle_positions(config)[first]
    with pytest.raises(ToolkitError) as err:
        pso_minimize(lambda x: bad if x[0] > 0 else x[0] ** 2, config)
    assert str(err.value) == (
        f"objective returned {bad} for particle {first} at position "
        f"{position.tolist()}; costs must be finite"
    )


@pytest.mark.parametrize("pooled", (False, True))
def test_a_trial_error_propagates_unchanged_lowest_index_first(pooled):
    config = PsoConfig(swarm_size=6, generations=2, bounds=BOX3, seed=4)
    generation = _oracle_positions(config)[6:12]
    failing = {generation[1].tobytes(), generation[4].tobytes()}
    raised, active = {}, threading.active_count()

    def objective(x):
        if x.tobytes() in failing:
            if x.tobytes() == generation[1].tobytes():
                time.sleep(0.05)  # pooled, particle 4 fails first
            raised[x.tobytes()] = error = RuntimeError("trial failed")
            raise error
        return sphere(x)

    with pool_forced() if pooled else nullcontext():
        with pytest.raises(RuntimeError) as err:
            pso_minimize(objective, config)
    assert err.value is raised[generation[1].tobytes()]
    assert threading.active_count() == active


@pytest.mark.parametrize("failure", ("raise", "nan"))
def test_a_pooled_first_generation_failure_names_its_particle_lowest_first(failure):
    config = PsoConfig(swarm_size=6, generations=2, bounds=BOX3, seed=4)
    generation = _oracle_positions(config)[:6]
    raised, active = {}, threading.active_count()

    def objective(x):
        index = next((i for i in (3, 5) if x.tobytes() == generation[i].tobytes()), None)
        if index is None:
            return sphere(x)
        if index == 3:
            time.sleep(0.05)  # particle 5 fails first
        if failure == "nan":
            return math.nan
        raised[index] = error = RuntimeError(f"trial {index} failed")
        raise error

    with pool_forced(cpus=2):
        with pytest.raises(Exception) as err:
            pso_minimize(objective, config)
    if failure == "nan":
        assert err.type is ToolkitError
        assert str(err.value) == (
            f"objective returned nan for particle 3 at position "
            f"{generation[3].tolist()}; costs must be finite"
        )
    else:
        assert err.value is raised[3]
    assert threading.active_count() == active


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
