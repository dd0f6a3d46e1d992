import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridrbf
from hybridrbf import (
    ConfigError,
    DomainError,
    HybridParams,
    KERNEL_KINDS,
    KernelSpec,
    eval_kernel,
    eval_kernel_batch,
)
from hybridrbf.kernels import _FILL_BLOCK, _fill
from kernel_oracle import phi

E_INV = 0.36787944117144233  # exp(-1)


def test_hybrid_at_zero_radius_is_alpha():
    spec = KernelSpec.hybrid(3.7, 0.7, 0.3)
    assert eval_kernel(spec, 0.0) == 0.7


def test_hybrid_matches_hand_values():
    assert eval_kernel(KernelSpec.hybrid(1.0, 1.0, 0.0), 1.0) == pytest.approx(E_INV, abs=1e-15)
    # 0.5 * exp(-1) + 0.25 * 8, computed independently
    assert eval_kernel(KernelSpec.hybrid(0.5, 0.5, 0.25), 2.0) == pytest.approx(
        2.1839397205857214, abs=1e-15
    )


def test_cubic_value():
    assert eval_kernel(KernelSpec.cubic(), 2.0) == 8.0


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        eval_kernel(KernelSpec.gaussian(1.0), -0.5)
    with pytest.raises(DomainError):
        eval_kernel_batch(KernelSpec.gaussian(1.0), [[0.0, -1.0]])


@pytest.mark.parametrize("r", [np.array([1.0]), [0.5, 1.0], np.zeros((1, 1))])
def test_scalar_kernel_refuses_an_array_radius(r):
    message = "^eval_kernel expects a scalar radius; use eval_kernel_batch$"
    with pytest.raises(DomainError, match=message):
        eval_kernel(KernelSpec.gaussian(1.0), r)


def test_batch_empty_matrix():
    out = eval_kernel_batch(KernelSpec.hybrid(1.0, 0.5, 0.5), np.empty((0, 0)))
    assert out.shape == (0, 0)


def test_batch_two_by_two_gaussian():
    out = eval_kernel_batch(KernelSpec.hybrid(1.0, 1.0, 0.0), [[0.0, 1.0], [1.0, 0.0]])
    scalar = eval_kernel(KernelSpec.hybrid(1.0, 1.0, 0.0), 1.0)
    assert out[0, 0] == 1.0 and out[1, 1] == 1.0
    assert out[0, 1] == scalar and out[1, 0] == scalar


def test_batch_cubic_matrix():
    out = eval_kernel_batch(KernelSpec.cubic(), [[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(out, [[0.0, 8.0], [8.0, 0.0]])


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_batch_matches_scalar_bitwise(kind):
    spec = KernelSpec(kind, HybridParams(1.3, 0.6, 0.4))
    rng = np.random.default_rng(11)
    distances = rng.uniform(0.0, 5.0, size=(7, 5))
    batch = eval_kernel_batch(spec, distances)
    for idx in np.ndindex(distances.shape):
        assert batch[idx] == eval_kernel(spec, float(distances[idx]))


def test_batch_symmetric_input_symmetric_output():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (40, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    for kind in KERNEL_KINDS:
        out = eval_kernel_batch(KernelSpec(kind, HybridParams(2.0, 0.5, 0.5)), d)
        assert np.array_equal(out, out.T)


def test_hybrid_is_weighted_sum_of_parts():
    rng = np.random.default_rng(7)
    gauss = KernelSpec.gaussian(1.7)
    cubic = KernelSpec.cubic()
    hybrid = KernelSpec.hybrid(1.7, 0.35, 0.65)
    for r in rng.uniform(0.0, 10.0, size=200):
        combined = 0.35 * eval_kernel(gauss, r) + 0.65 * eval_kernel(cubic, r)
        value = eval_kernel(hybrid, r)
        assert value == pytest.approx(combined, rel=1e-15, abs=1e-300)


def test_gaussian_bound():
    spec = KernelSpec.gaussian(2.0)
    assert eval_kernel(spec, 0.0) == 1.0
    for r in np.linspace(0.01, 10, 100):
        v = eval_kernel(spec, float(r))
        assert 0.0 < v < 1.0


def test_gaussian_equals_hybrid_alpha_one():
    gauss = KernelSpec.gaussian(2.5)
    hybrid = KernelSpec.hybrid(2.5, 1.0, 0.0)
    r = np.linspace(0, 4, 50)
    assert np.array_equal(eval_kernel_batch(gauss, r), eval_kernel_batch(hybrid, r))


def test_wendland_compact_support():
    spec = KernelSpec("wendland", HybridParams(2.0, 1.0, 0.0))
    assert eval_kernel(spec, 0.5) == 0.0  # r = 1/eps exactly
    assert eval_kernel(spec, 0.7) == 0.0
    assert eval_kernel(spec, 0.49) > 0.0


def test_thin_plate_spline_zero_limit():
    spec = KernelSpec("thin-plate-spline", HybridParams(0.0, 1.0, 0.0))
    assert eval_kernel(spec, 0.0) == 0.0
    assert eval_kernel(spec, 2.0) == pytest.approx(4.0 * np.log(2.0), rel=1e-15)


def test_multiquadric_pair():
    mq = KernelSpec("multiquadric", HybridParams(1.0, 1.0, 0.0))
    imq = KernelSpec("inverse-multiquadric", HybridParams(1.0, 1.0, 0.0))
    assert eval_kernel(mq, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert eval_kernel(imq, 1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize(
    "eps,alpha,beta",
    [(-1.0, 0.5, 0.5), (1.0, -0.1, 0.5), (1.0, 1.2, 0.5), (1.0, 0.5, -0.1), (1.0, 0.5, 1.3), (1.0, 0.0, 0.0)],
)
def test_invalid_params_rejected(eps, alpha, beta):
    with pytest.raises(ConfigError):
        HybridParams(eps, alpha, beta)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        KernelSpec("quartic", HybridParams(1.0))


def test_record_round_trip():
    spec = KernelSpec.hybrid(5.5434, 0.6749, 4.915e-07)
    again = KernelSpec.from_record(spec.to_record())
    assert again == spec


def test_record_rejects_malformed():
    with pytest.raises(ConfigError):
        KernelSpec.from_record("hybrid,1.0,0.5")
    with pytest.raises(ConfigError):
        KernelSpec.from_record("hybrid,one,0.5,0.5")


# --- the blocked fill against the phi oracle ----------------------------------

FILL_SHAPES = [
    (0,),
    (0, 5),
    (1,),
    (1, 1),
    (_FILL_BLOCK - 1,),
    (_FILL_BLOCK,),
    (_FILL_BLOCK + 1,),
    (3 * _FILL_BLOCK + 17,),
    (181, 367),  # rectangular, blocks that split rows
]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("shape", FILL_SHAPES, ids=str)
def test_fill_bit_equal_to_phi(kind, shape):
    params = HybridParams(2.7, 0.6, 0.4)
    r = np.random.default_rng(len(shape) + sum(shape)).uniform(0.0, 1.5, size=shape)
    # exact zeros (the TPS limit, wendland and IMQ at r = 0) at the ends of
    # the array and of its first block, and every tenth cell
    flat = r.reshape(-1)
    flat[::10] = 0.0
    flat[[i for i in (_FILL_BLOCK - 1, _FILL_BLOCK, flat.size - 1) if 0 <= i < flat.size]] = 0.0
    out = _fill(KernelSpec(kind, params), r)
    assert out.shape == r.shape
    assert np.array_equal(out, phi(kind, params, r))
    buffer = np.full(r.shape, np.nan)
    assert _fill(KernelSpec(kind, params), r, out=buffer) is buffer
    assert np.array_equal(buffer, out)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_fill_bit_equal_to_phi_on_non_contiguous_input(kind):
    params = HybridParams(5.5, 0.7, 1e-6)
    spec = KernelSpec(kind, params)
    base = np.random.default_rng(21).uniform(0.0, 1.2, size=(260, 300))
    for r in (base.T, base[:, ::3], base[7:, 1:-1]):
        assert not r.flags.c_contiguous
        assert np.array_equal(_fill(spec, r), phi(kind, params, r))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_fill_holds_the_output_plus_two_blocks(kind):
    spec = KernelSpec(kind, HybridParams(2.7, 0.6, 0.4))
    r = np.random.default_rng(5).uniform(0.0, 1.5, size=(625, 625))
    tracemalloc.start()
    try:
        out = _fill(spec, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * _FILL_BLOCK * out.itemsize


_radii = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KERNEL_KINDS),
    epsilon=st.floats(min_value=0.0, max_value=30.0),
    beta=st.floats(min_value=0.0, max_value=1.0),
    radii=st.lists(_radii, min_size=1, max_size=40),
)
# numpy's scalar x**4 rounds differently from the array loop here
@example(kind="wendland", epsilon=0.7454337761917519, beta=0.0, radii=[0.7454337761917519])
def test_scalar_and_batch_agree_entry_for_entry(kind, epsilon, beta, radii):
    alpha = 1.0 if beta == 0.0 else 1.0 - beta
    spec = KernelSpec(kind, HybridParams(epsilon, alpha, beta))
    r = np.array(radii)
    for shaped in (r, r.reshape(1, -1), r.reshape(-1, 1)):
        batch = eval_kernel_batch(spec, shaped)
        for idx in np.ndindex(shaped.shape):
            assert batch[idx] == eval_kernel(spec, float(shaped[idx]))


def test_overflowing_kernel_values_are_inf_without_warning(recwarn):
    """The scalar and batch paths both overflow to inf silently."""
    r = 1e103  # r**3 overflows float64
    for spec, at_zero in ((KernelSpec.cubic(), 0.0), (KernelSpec.hybrid(1.0, 0.5, 0.5), 0.5)):
        assert eval_kernel(spec, r) == np.inf
        assert np.array_equal(eval_kernel_batch(spec, [[0.0, r]]), [[at_zero, np.inf]])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# The Franke study's 1600 x 625 grid-to-node distances, on which numpy's
# pow(r, 3) and pow(x, 4) give other bits when its AVX-512 and AVX2 loops are
# disabled.
_CUBE_HASH = """
import hashlib
from hybridrbf import KernelSpec, make_evaluation_grid, make_tensor_grid
from hybridrbf.geometry import pairwise_distances
from hybridrbf.kernels import _fill
r = pairwise_distances(make_evaluation_grid(40), make_tensor_grid(25, 2))
for spec in (KernelSpec.cubic(), KernelSpec.from_name("wendland", 2.7, 1.0, 0.0)):
    print(hashlib.sha256(_fill(spec, r).tobytes()).hexdigest())
"""


def test_cube_bits_do_not_follow_simd_dispatch():
    """The cube and wendland's fourth power are IEEE multiplications, so
    numpy's SIMD level leaves them.

    numpy ignores disabled feature names the CPU lacks, so both runs start
    on any host.
    """
    src = str(Path(hybridrbf.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src
    digests = []
    for disabled in (None, "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        run_env = env if disabled is None else {**env, "NPY_DISABLE_CPU_FEATURES": disabled}
        result = subprocess.run(
            [sys.executable, "-c", _CUBE_HASH],
            capture_output=True,
            text=True,
            timeout=120,
            env=run_env,
            check=True,
        )
        digests.append(result.stdout.split())
    # two SHA-256 hex digests: both runs printed both
    assert [len(d) for d in digests[0]] == [64, 64]
    assert digests[0] == digests[1]


def test_cube_is_two_multiplications():
    # 1.3**3 rounds to 2.197 once; r * r * r rounds twice, to 2.1970000000000005.
    r = 1.3
    assert eval_kernel(KernelSpec.cubic(), r) == r * r * r
    assert eval_kernel_batch(KernelSpec.cubic(), [r])[0] == r * r * r
