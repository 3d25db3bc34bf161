"""Micro-benchmarks of the analytic models themselves.

These measure the cost of the building blocks a user calls interactively
(tiling selection, exact traffic evaluation, one accelerator layer run, the
functional simulator) so regressions in model complexity are visible -- plus
the headline perf gates of the vectorized search backends: the vgg16 fig13
memory sweep must run at least 10x faster through the NumPy candidate grids
than through the scalar reference loop, and the accelerator and Eyeriss tile
searches at least 8x faster array-evaluated than scalar, all with
bit-identical results.
"""

import math
import time
from unittest import mock

from repro.analysis.sweep import memory_sweep
from repro.arch import accelerator
from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation
from repro.arch.functional import FunctionalSimulator
from repro.core.optimal_dataflow import choose_tiling, dataflow_traffic
from repro.core.tiling import Tiling
from repro.dataflows import grid
from repro.engine import SearchEngine
from repro.eyeriss.model import EyerissModel
from repro.workloads.generator import small_test_layers
from repro.workloads.registry import get_workload
from repro.workloads.vgg import vgg16_conv_layers

import numpy as np


def test_speed_choose_tiling(benchmark):
    layer = vgg16_conv_layers()[8]  # conv4_2
    result = benchmark(choose_tiling, layer, 34048)
    assert result.traffic.total > 0


def test_speed_dataflow_traffic(benchmark):
    layer = vgg16_conv_layers()[8]
    tiling = Tiling(b=1, z=64, y=16, x=28)
    traffic = benchmark(dataflow_traffic, layer, tiling)
    assert traffic.total > 0


def test_speed_accelerator_layer(benchmark):
    layer = vgg16_conv_layers()[8]
    model = AcceleratorModel(paper_implementation(1))
    model.run_layer(layer)  # warm the tiling cache once
    result = benchmark(model.run_layer, layer)
    assert result.dram.total > 0


def test_speed_fig13_sweep_vectorized_vs_scalar():
    """Perf gate: the vectorized backend on the paper's headline experiment.

    Runs the full vgg16 fig13 memory sweep (16 capacity points, 13 layers,
    all 8 dataflows) twice from a cold cache with a single worker: once
    through the scalar reference backend and once through the NumPy
    candidate grids.  The vectorized sweep must be >= 10x faster (measured
    ~100x on an ordinary CI worker) *and* produce the exact same series --
    the speedup is worthless if the numbers move.
    """
    capacities_kib = [16 * step for step in range(1, 17)]
    layers = vgg16_conv_layers()

    start = time.perf_counter()
    scalar_sweep = memory_sweep(
        capacities_kib=capacities_kib,
        layers=layers,
        engine=SearchEngine(workers=1, backend="python"),
    )
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized_sweep = memory_sweep(
        capacities_kib=capacities_kib,
        layers=layers,
        engine=SearchEngine(workers=1, backend="numpy"),
    )
    vectorized_seconds = time.perf_counter() - start

    for name, values in scalar_sweep["series"].items():
        for left, right in zip(values, vectorized_sweep["series"][name]):
            assert (math.isnan(left) and math.isnan(right)) or left == right, (
                f"series {name!r} moved under the vectorized backend"
            )

    speedup = scalar_seconds / vectorized_seconds
    print(
        f"\nvgg16 fig13 sweep ({len(capacities_kib)} capacities x "
        f"{len(layers)} layers x 8 dataflows, cold cache, 1 worker):\n"
        f"  scalar backend     {scalar_seconds:8.2f} s\n"
        f"  vectorized backend {vectorized_seconds:8.2f} s\n"
        f"  speedup            {speedup:8.1f}x"
    )
    assert speedup >= 10.0, (
        f"vectorized sweep only {speedup:.1f}x faster than scalar "
        f"({vectorized_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )


def _timed(function, scalar: bool):
    """``(seconds, result)`` of ``function()`` on one backend, cold tiling memo.

    ``scalar`` hides numpy from the two models, which is exactly the branch a
    no-numpy install takes.
    """
    with mock.patch.dict(accelerator._TILING_CACHE, clear=True), mock.patch.object(
        grid, "numpy_available", return_value=not scalar
    ):
        start = time.perf_counter()
        result = function()
        return time.perf_counter() - start, result


def test_speed_tile_searches_vectorized_vs_scalar():
    """Perf gate: the array-evaluated accelerator and Eyeriss tile searches.

    On the ``reproduce-all`` networks (vgg16, resnet18, alexnet), every
    Table I implementation's tiling is chosen from a cold memo and every
    layer's Eyeriss RS tile is searched, once per backend.  Each array path
    must be >= 8x faster than its scalar loop (measured ~19x and ~17x on a
    2-vCPU box) and give exactly the same tilings and layer results.
    """
    layers = [
        layer for name in ("vgg16", "resnet18", "alexnet") for layer in get_workload(name)
    ]

    def arch_tilings():
        return [
            AcceleratorModel(config).choose_layer_tiling(layer)
            for config in PAPER_IMPLEMENTATIONS
            for layer in layers
        ]

    def eyeriss_results():
        model = EyerissModel()
        return [model.run_layer(layer) for layer in layers]

    rows = []
    for label, function in (("arch tiling", arch_tilings), ("eyeriss", eyeriss_results)):
        scalar_seconds, scalar = _timed(function, scalar=True)
        vectorized_seconds, vectorized = _timed(function, scalar=False)
        assert vectorized == scalar, f"{label} results moved under the array path"
        rows.append((label, scalar_seconds, vectorized_seconds))

    print(f"\ntile searches, {len(layers)} layers (vgg16 + resnet18 + alexnet):")
    for label, scalar_seconds, vectorized_seconds in rows:
        print(
            f"  {label:12s} scalar {scalar_seconds:7.2f} s  array {vectorized_seconds:6.2f} s  "
            f"speedup {scalar_seconds / vectorized_seconds:5.1f}x"
        )
    for label, scalar_seconds, vectorized_seconds in rows:
        speedup = scalar_seconds / vectorized_seconds
        assert speedup >= 8.0, (
            f"{label}: array path only {speedup:.1f}x faster than scalar "
            f"({vectorized_seconds:.2f}s vs {scalar_seconds:.2f}s)"
        )


def test_speed_functional_simulator(benchmark):
    layer = small_test_layers()[0]
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((layer.batch, layer.in_channels, layer.in_height, layer.in_width))
    weights = rng.standard_normal(
        (layer.out_channels, layer.in_channels, layer.kernel_height, layer.kernel_width)
    )
    simulator = FunctionalSimulator()
    result = benchmark(simulator.run, layer, Tiling(b=1, z=2, y=4, x=4), inputs, weights)
    assert result.outputs.shape == (layer.batch, layer.out_channels,
                                    layer.out_height, layer.out_width)
