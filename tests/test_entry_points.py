"""Every public constructor, and a tiny study, returns or raises a ToolkitError.

The arguments mix valid values with values of the wrong type, shape or
range, complex values among them.  Counts that a call would allocate by
stay small, so a valid draw stays cheap.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridrbf import (
    KERNEL_KINDS,
    ConfigError,
    DomainError,
    ExperimentSpec,
    KernelSpec,
    ObjectiveSpec,
    PointSet,
    PsoConfig,
    ToolkitError,
    assemble,
    eval_kernel,
    eval_kernel_batch,
    evaluate,
    fit,
    kernel_objective,
    make_evaluation_grid,
    make_halton_set,
    make_tensor_grid,
    pairwise_distances,
    pso_minimize,
    rms_error,
    run_study,
)
from hybridrbf.bench import (
    _STUDY_TABLE,
    STUDIES,
    VARIANTS,
    fault_elevation,
    fault_side,
    franke,
    linear_truth,
    synthetic_fault_surface,
)

# numpy's float() and float arrays would keep only the real part of these.
_NP_COMPLEX = st.builds(np.complex128, st.complex_numbers())
_COMPLEX_ARRAYS = st.lists(st.complex_numbers(), min_size=1, max_size=3).map(
    lambda values: np.array(values, dtype=complex)
)
# Not an integer, so no count check lets it through to an allocation.
_NOT_A_COUNT = st.one_of(
    st.none(),
    st.floats(),
    st.text(max_size=3),
    st.complex_numbers(),
    _NP_COMPLEX,
    _COMPLEX_ARRAYS,
    st.lists(
        st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2), _NP_COMPLEX), max_size=3
    ),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=2),
)
_JUNK = st.one_of(_NOT_A_COUNT, st.just(10**400), st.integers(-(2**70), 2**70))
_NUMBER = st.one_of(st.integers(-3, 25), st.floats())


def _or(strategy, junk=_JUNK):
    return st.one_of(strategy, junk)


def _count(lo, hi):
    return _or(st.integers(lo, hi), _NOT_A_COUNT)


_GRID3 = make_evaluation_grid(3)
_MODEL = fit(_GRID3.with_values(np.arange(9.0)), KernelSpec.hybrid(1.0, 0.5, 0.5))
_POINTS = st.lists(st.lists(_NUMBER, min_size=1, max_size=3), max_size=4)
_GRIDS = st.builds(make_tensor_grid, st.integers(2, 3), st.integers(1, 2))
_KERNELS = st.builds(KernelSpec.hybrid, st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.just(0.5))
# Python and numpy bools pass the flag rule; anything else is junk to it.
_FLAGS = _or(st.booleans() | st.booleans().map(np.bool_))
_PSO = st.builds(
    PsoConfig,
    st.integers(1, 3),
    st.integers(1, 2),
    bounds=st.tuples(
        st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 5.0)),
        *[st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0))] * 2,
    ),
    seed=st.integers(0, 3),
)

_CALLS = st.one_of(
    st.tuples(
        st.just(KernelSpec),
        st.tuples(_or(st.sampled_from(KERNEL_KINDS)), _or(_NUMBER), _or(_NUMBER), _or(_NUMBER)),
    ),
    st.tuples(st.just(PointSet), st.tuples(_or(_POINTS), _or(st.none() | st.lists(_NUMBER)))),
    st.tuples(
        st.just(PsoConfig),
        st.tuples(
            _or(st.integers(-1, 3)),
            _or(st.integers(-1, 3)),
            _or(_NUMBER),
            _or(_NUMBER),
            _or(_NUMBER),
            _or(st.lists(st.tuples(_NUMBER, _NUMBER), max_size=4)),
            _or(st.integers(-1, 3)),
        ),
    ),
    st.tuples(
        st.just(ObjectiveSpec),
        st.tuples(
            _or(st.sampled_from(("rms", "loocv"))),
            _or(st.none() | _GRIDS),
            _or(st.none() | st.lists(_NUMBER, max_size=9)),
            _FLAGS,
        ),
    ),
    st.tuples(st.sampled_from((fit, assemble)), st.tuples(st.just(_MODEL.centers), _KERNELS, _FLAGS)),
    st.tuples(
        st.sampled_from((make_tensor_grid, make_evaluation_grid)),
        st.tuples(_count(-1, 4), _count(-1, 3), _or(_NUMBER), _or(_NUMBER)),
    ),
    st.tuples(st.just(make_halton_set), st.tuples(_count(-1, 20), _count(-1, 30))),
    st.tuples(st.just(synthetic_fault_surface), st.tuples(_count(8, 12), _or(st.integers(-1, 3)))),
    # huge, infinite and nan coordinates among them
    st.tuples(
        st.sampled_from((franke, linear_truth)),
        st.tuples(_or(_NUMBER | st.lists(_NUMBER, max_size=3)), _or(_NUMBER)),
    ),
    st.tuples(st.just(eval_kernel), st.tuples(_KERNELS, _or(_NUMBER))),
    st.tuples(
        st.just(eval_kernel_batch), st.tuples(_KERNELS, _or(st.lists(_or(_NUMBER), max_size=4)))
    ),
    st.tuples(
        st.just(rms_error),
        st.tuples(st.just(_MODEL), _or(st.just(_GRID3) | _POINTS), _or(st.lists(_NUMBER, max_size=9))),
    ),
    # the objective returns the drawn cost, a number or not, for every particle
    st.tuples(st.just(pso_minimize), st.tuples(_or(_NUMBER).map(lambda cost: lambda x: cost), _PSO)),
    st.tuples(
        st.just(ExperimentSpec),
        st.tuples(
            _or(st.sampled_from(STUDIES)),
            _or(st.none() | st.lists(_or(st.sampled_from((4, 9, 10))), max_size=3)),
            _or(st.none() | st.lists(_or(st.sampled_from(VARIANTS)), max_size=3)),
            _or(st.sampled_from(("rms", "loocv", None))),
            _or(_PSO),
            _or(st.none() | st.integers(-1, 4)),
            _or(st.integers(-1, 3)),
            _or(st.none() | st.integers(-1, 3)),
            _or(
                st.none()
                | st.dictionaries(
                    # a dict key must hash, or Hypothesis itself raises TypeError
                    _or(
                        st.sampled_from((4, 9)),
                        _JUNK.filter(lambda v: not isinstance(v, list | dict | np.ndarray)),
                    ),
                    _or(st.tuples(_NUMBER, _NUMBER, _NUMBER)),
                    max_size=2,
                )
            ),
            _or(st.none() | st.integers(0, 20)),
            _or(st.none() | st.integers(0, 5)),
            _NOT_A_COUNT.filter(lambda v: not isinstance(v, str)),
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_CALLS)
def test_every_public_constructor_returns_or_raises_a_toolkit_error(call):
    function, args = call
    try:
        function(*args)
    except ToolkitError:
        pass


@st.composite
def _tiny_specs(draw):
    """The fields of one study at sizes a study runs in milliseconds."""
    study = draw(st.sampled_from(STUDIES))
    values = {
        "node_counts": st.lists(st.sampled_from((4, 9, 16)), min_size=1, max_size=2, unique=True),
        "variants": st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=2),
        "objective": st.sampled_from(("rms", "loocv")),
        "eval_grid_n": st.integers(2, 4),
        "sweep_points": st.integers(0, 2),
        "params_per_n": st.dictionaries(
            st.sampled_from((4, 9)), st.tuples(_NUMBER, _NUMBER, _NUMBER), max_size=1
        ),
        "fault_points": st.integers(10, 14),
        "fault_grid_n": st.integers(1, 4),
    }
    fields = {name: draw(values[name]) for name in _STUDY_TABLE[study][1]}
    return dict(study=study, pso=draw(_PSO), seed=draw(st.integers(0, 3)), **fields)


@settings(max_examples=60, deadline=None)
@given(_tiny_specs())
def test_a_tiny_study_returns_or_raises_a_toolkit_error(fields):
    """Every setting is checked when the spec is built, so a spec that
    builds runs without a ConfigError."""
    try:
        spec = ExperimentSpec(**fields)
    except ConfigError:
        return
    try:
        report = run_study(spec)
    except ConfigError as exc:
        pytest.fail(f"a spec that built raised ConfigError at run time: {exc}")
    except ToolkitError:
        return
    assert report.cells


@pytest.mark.parametrize(
    "call",
    (
        lambda: ExperimentSpec(study="franke", node_counts=1),
        lambda: ExperimentSpec(study="franke", variants=1),
        lambda: ExperimentSpec(study="spectra", node_counts=(4,), params_per_n=[(4, (1, 1, 0))]),
        lambda: ObjectiveSpec("rms", _GRID3, "x"),
        lambda: ObjectiveSpec("rms", _GRID3.coords, np.zeros(9)),
        lambda: make_tensor_grid(3, 2, None, 1.0),
        lambda: make_tensor_grid(3, 1, -1e308, 1e308),
        lambda: KernelSpec("hybrid", 10**400),
        lambda: PointSet([[10**400]]),
        lambda: PsoConfig(c1=10**400),
        lambda: KernelSpec(np.zeros(2), 1.0),
        lambda: ObjectiveSpec(np.zeros(2)),
        lambda: ExperimentSpec(study=np.zeros(2)),
        lambda: ExperimentSpec(study="franke", variants=[np.zeros(2)]),
        lambda: ExperimentSpec(study="franke", objective=np.zeros(2)),
        lambda: ObjectiveSpec("loocv", augmented=np.zeros(2)),
        lambda: fit(_MODEL.centers, _MODEL.kernel, augmented=np.zeros(2)),
        lambda: assemble(_MODEL.centers, _MODEL.kernel, augmented="no"),
    ),
    ids=(
        "int-node-counts",
        "int-variants",
        "list-params-per-n",
        "text-truth",
        "array-grid",
        "none-lower",
        "infinite-width",
        "huge-epsilon",
        "huge-coordinate",
        "huge-c1",
        "array-kernel-kind",
        "array-objective-kind",
        "array-study",
        "array-variant",
        "array-objective",
        "array-objective-flag",
        "array-fit-flag",
        "text-assemble-flag",
    ),
)
def test_a_value_of_the_wrong_type_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: ExperimentSpec(study="fault", fault_points=5), "fault_points must be >= 10, got 5"),
        (lambda: ExperimentSpec(study="fault", fault_grid_n=1), "fault_grid_n must be >= 2, got 1"),
        (
            lambda: ExperimentSpec(study="scaling", node_counts=(4, 9)),
            "node counts must span at least a 4x range, got 4..9",
        ),
        (lambda: synthetic_fault_surface("a"), "n_points must be an integer, got 'a'"),
        (lambda: synthetic_fault_surface(10.5), "n_points must be an integer, got 10.5"),
        (lambda: synthetic_fault_surface(12, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: synthetic_fault_surface(12, seed=-1), "seed must be >= 0, got -1"),
        (
            lambda: ExperimentSpec(study="spectra", node_counts=(4,), params_per_n={4.0: (1, 1, 0)}),
            "node count must be an integer, got 4.0",
        ),
    ),
    ids=(
        "few-fault-points",
        "one-fault-grid-side",
        "narrow-scaling-span",
        "text-fault-points",
        "fractional-fault-points",
        "fractional-fault-seed",
        "negative-fault-seed",
        "fractional-pinned-node-count",
    ),
)
def test_a_bad_study_setting_is_refused_when_it_is_made(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


_ONE = PointSet([[0.5]])
_ONE_MODEL = fit(_ONE.with_values([1.0]), KernelSpec.hybrid(1.0, 0.5, 0.5))
_LOOCV_OBJECTIVE = kernel_objective(ObjectiveSpec.loocv(), _MODEL.centers)

# Each entry point that reads a real number: a call taking a value v in
# that place, the error it raises for a v that is no real number, and its
# message with v's repr in place of {}.
_COMPLEX_SITES = {
    "kernel-parameter": (
        lambda v: KernelSpec("hybrid", v, 0.5, 0.5),
        ConfigError,
        "epsilon, alpha and beta must be numbers, got {}, 0.5, 0.5",
    ),
    "radius": (
        lambda v: eval_kernel(KernelSpec.gaussian(1.0), v),
        DomainError,
        "radius must be a number, got {}",
    ),
    "distances": (
        lambda v: eval_kernel_batch(KernelSpec.gaussian(1.0), v),
        DomainError,
        "distances must be numbers, got {}",
    ),
    "coords": (lambda v: PointSet(v), ConfigError, "coords must be numbers, got {}"),
    "values": (lambda v: PointSet([[0.5]], v), ConfigError, "values must be numbers, got {}"),
    "objective-truth": (
        lambda v: ObjectiveSpec("rms", _ONE, v),
        ConfigError,
        "truth_values must be numbers, got {}",
    ),
    "grid-bound": (
        lambda v: make_tensor_grid(2, 1, v, 1.0),
        ConfigError,
        "lower and upper must be numbers, got {} and 1.0",
    ),
    "pso-factor": (lambda v: PsoConfig(c1=v), ConfigError, "c1 must be a number, got {}"),
    "pso-bound": (
        lambda v: PsoConfig(bounds=((0.0, v),)),
        ConfigError,
        "bounds must be (lower, upper) pairs of numbers, got ((0.0, {}),)",
    ),
    "pinned-triple": (
        lambda v: ExperimentSpec(study="spectra", node_counts=(4,), params_per_n={4: (v, 0.5, 0.5)}),
        ConfigError,
        "params_per_n[4] = ({0}, 0.5, 0.5): epsilon, alpha and beta must be numbers, got {0}, 0.5, 0.5",
    ),
    "distance-points": (
        lambda v: pairwise_distances(v, [[0.5]]),
        DomainError,
        "coordinates must be numbers, got {}",
    ),
    "evaluation-points": (
        lambda v: evaluate(_ONE_MODEL, v),
        DomainError,
        "coordinates must be numbers, got {}",
    ),
    "rms-truth": (
        lambda v: rms_error(_ONE_MODEL, _ONE, v),
        DomainError,
        "truth values must be numbers, got {}",
    ),
    "search-position": (lambda v: _LOOCV_OBJECTIVE(v), DomainError, "position must be numbers, got {}"),
    "franke": (lambda v: franke(v, 0.5), DomainError, "x and y must be numbers, got {}"),
    "linear-truth": (lambda v: linear_truth(0.5, v), DomainError, "x and y must be numbers, got {}"),
    "fault-side": (lambda v: fault_side(v), DomainError, "coordinates must be numbers, got {}"),
    "fault-elevation": (
        lambda v: fault_elevation([[10.0, v]]),
        DomainError,
        "coordinates must be numbers, got [[10.0, {}]]",
    ),
}


@pytest.mark.parametrize("site", _COMPLEX_SITES)
def test_a_complex_value_is_refused_where_a_real_number_is_read(site):
    """numpy would cast each value to its real part, 0.5, with only a
    warning; each is refused with the error the site raises for text."""
    call, error, message = _COMPLEX_SITES[site]
    for value in (0.5 + 1j, np.complex128(0.5 + 1j), np.array([0.5 + 1j])):
        with pytest.raises(error) as err:
            call(value)
        assert err.type is error
        assert str(err.value) == message.format(repr(value))


_NOT_N_BY_2 = "fault coordinates must be an N x 2 matrix, got shape "


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: fault_side(np.zeros((3, 1))), _NOT_N_BY_2 + "(3, 1)"),
        (lambda: fault_side(np.zeros((3, 3))), _NOT_N_BY_2 + "(3, 3)"),
        (lambda: fault_elevation([[1.0]]), _NOT_N_BY_2 + "(1, 1)"),
        (
            lambda: franke([0.1, 0.2], [0.1, 0.2, 0.3]),
            "x and y must broadcast, got shapes (2,) and (3,)",
        ),
        (
            lambda: linear_truth(np.zeros(2), np.zeros((3, 1, 3))),
            "x and y must broadcast, got shapes (2,) and (3, 1, 3)",
        ),
    ),
    ids=("fault-side-one-column", "fault-side-three-columns", "fault-elevation-one-column",
         "franke-lengths", "linear-truth-shapes"),
)
def test_a_truth_surface_refuses_a_shape_it_cannot_read(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert err.type is DomainError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, want",
    (
        (lambda: franke(1e200, 0.5), 0.0),
        (lambda: franke(0.5, 1e200), 0.0),
        (lambda: franke(0.5, -1e3), np.inf),  # exp(900) overflows
        (lambda: franke(1e154, -1e308), 0.0),  # the square outweighs the linear term
        (lambda: franke(1.5e153, -1e308), np.inf),  # and here the linear term wins
        (lambda: linear_truth(1e308, 1e308), np.inf),
        (lambda: linear_truth(-1e308, -1e308), -np.inf),
    ),
    ids=("franke-far-x", "franke-far-y", "franke-exp-overflows", "franke-square-wins",
         "franke-linear-wins", "linear-truth-above", "linear-truth-below"),
)
def test_a_truth_surface_gives_its_limit_at_a_far_point_without_a_warning(call, want):
    assert call() == want


@pytest.mark.parametrize(
    "call",
    (
        lambda: franke(np.inf, -np.inf),
        lambda: franke([0.5, np.nan], 0.5),
        lambda: linear_truth(np.inf, -np.inf),
        lambda: linear_truth(0.5, np.inf),
    ),
    ids=("franke-infinities", "franke-nan", "linear-truth-infinities", "linear-truth-inf"),
)
def test_a_truth_surface_refuses_a_point_that_is_not_finite(call):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == "x and y must be finite"


def test_a_complex_cost_is_refused_naming_the_particle():
    config = PsoConfig(swarm_size=1, generations=1, bounds=((0.0, 1.0),))
    for value in (0.5 + 1j, np.complex128(0.5 + 1j), np.array([0.5 + 1j])):
        with pytest.raises(ToolkitError) as err:
            pso_minimize(lambda x: value, config)
        assert err.type is ToolkitError
        shown = re.escape(f"objective returned {value} for particle 0 at position ")
        assert re.fullmatch(shown + r"\[[^]]+\]; costs must be finite", str(err.value))
