"""Differential suite: array-evaluated accelerator and Eyeriss tile searches.

``AcceleratorModel.choose_layer_tiling`` and ``EyerissModel.run_layer`` each
have a NumPy branch and a scalar branch (the no-numpy fallback).  The array
branch is only trustworthy if it returns *exactly* what the scalar loop
returns: the same tiling (including which of several equal-traffic tilings
wins), the same counters downstream of it, and the same error text when no
tiling fits.  Hypothesis drives both with random layers against the Table I
implementations and random valid configurations.
"""

from unittest import mock

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch import accelerator  # noqa: E402
from repro.arch.accelerator import AcceleratorModel  # noqa: E402
from repro.arch.config import AcceleratorConfig, paper_implementation  # noqa: E402
from repro.core.layer import ConvLayer  # noqa: E402
from repro.dataflows import grid  # noqa: E402
from repro.eyeriss.model import EyerissConfig, EyerissModel  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def conv_layers(draw):
    """Random valid ConvLayers (the strategy of test_vectorized_parity.py)."""
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    kernel_height = draw(st.integers(1, 5))
    kernel_width = draw(st.integers(1, 5))
    in_height = draw(st.integers(max(1, kernel_height - 2 * padding), 28))
    in_width = draw(st.integers(max(1, kernel_width - 2 * padding), 28))
    return ConvLayer(
        name="rand",
        batch=draw(st.integers(1, 4)),
        in_channels=draw(st.integers(1, 32)),
        in_height=in_height,
        in_width=in_width,
        out_channels=draw(st.integers(1, 32)),
        kernel_height=kernel_height,
        kernel_width=kernel_width,
        stride=stride,
        padding=padding,
    )


@st.composite
def accelerator_configs(draw):
    """Table I implementations and random valid (often tiny) memory splits."""
    if draw(st.booleans()):
        return paper_implementation(draw(st.integers(1, 5)))
    group_rows = draw(st.sampled_from((1, 2, 4)))
    group_cols = draw(st.sampled_from((1, 2, 4)))
    return AcceleratorConfig(
        name="random",
        pe_rows=group_rows * draw(st.integers(1, 16)),
        pe_cols=group_cols * draw(st.integers(1, 16)),
        lreg_words_per_pe=draw(st.integers(1, 128)),
        igbuf_words=draw(st.integers(1, 2048)),
        wgbuf_words=draw(st.integers(1, 512)),
        greg_bytes=draw(st.integers(1, 36 * 1024)),
        group_rows=group_rows,
        group_cols=group_cols,
    )


@st.composite
def eyeriss_configs(draw):
    """The published Eyeriss parameters and random (often tiny) variants."""
    if draw(st.booleans()):
        return EyerissConfig()
    return EyerissConfig(
        pe_rows=draw(st.integers(1, 16)),
        pe_cols=draw(st.integers(1, 16)),
        gbuf_data_words=draw(st.integers(1, 60_000)),
        spad_weight_words_per_pe=draw(st.integers(1, 256)),
    )


def _hide_numpy():
    """Make both models take the branch a no-numpy install takes."""
    return mock.patch.object(grid, "numpy_available", return_value=False)


def _outcome(search, *args):
    """A search's result, or the text of the ValueError it raised."""
    try:
        return search(*args)
    except ValueError as error:
        return f"ValueError: {error}"


class TestAcceleratorTilingParity:
    @SETTINGS
    @given(layer=conv_layers(), config=accelerator_configs())
    def test_same_tiling_counters_and_errors(self, layer, config):
        model = AcceleratorModel(config)
        vectorized = _outcome(model._search_tiling, layer, True)
        scalar = _outcome(model._search_tiling, layer, False)
        assert vectorized == scalar
        if isinstance(scalar, str):
            return
        assert model.run_layer(layer, vectorized) == model.run_layer(layer, scalar)

    @SETTINGS
    @given(layer=conv_layers(), config=accelerator_configs())
    def test_near_optimal_sets_agree(self, layer, config):
        """The two-pass selection's first pass agrees candidate for candidate."""
        model = AcceleratorModel(config)
        try:
            candidates = list(model._candidate_tilings(layer, vectorized=False))
        except ValueError:
            return  # capacity below any tiling; covered by the test above
        assert model._near_optimal_grid(layer, candidates) == model._near_optimal_scalar(
            layer, candidates
        )

    def test_paper_layers_identical(self, vgg_layers):
        for index in (1, 5):
            model = AcceleratorModel(paper_implementation(index))
            for layer in vgg_layers[::4]:
                assert model._search_tiling(layer, True) == model._search_tiling(layer, False)

    def test_infeasible_layer_error_text(self):
        config = AcceleratorConfig(
            name="cramped", pe_rows=4, pe_cols=4, lreg_words_per_pe=1,
            igbuf_words=1, wgbuf_words=1, greg_bytes=64,
        )
        layer = ConvLayer("wide", 1, 4, 9, 9, 8, 3, 3)
        model = AcceleratorModel(config)
        vectorized = _outcome(model._search_tiling, layer, True)
        assert vectorized.startswith("ValueError: cramped: no tiling of layer 'wide'")
        assert vectorized == _outcome(model._search_tiling, layer, False)

    def test_forced_scalar_branch(self, vgg_layers):
        """The no-numpy fallback through the public entry point."""
        model = AcceleratorModel(paper_implementation(2))
        layer = vgg_layers[7]
        expected = model._search_tiling(layer, vectorized=True)
        with mock.patch.dict(accelerator._TILING_CACHE, clear=True), _hide_numpy(), mock.patch.object(
            AcceleratorModel, "_near_optimal_grid", side_effect=AssertionError("array path")
        ):
            assert model.choose_layer_tiling(layer) == expected


class TestShapeKeyedTilingMemo:
    def test_same_shape_layers_share_one_search(self):
        config = paper_implementation(3)
        model = AcceleratorModel(config)
        first = ConvLayer("first", 2, 16, 14, 14, 24, 3, 3, padding=1)
        second = ConvLayer("second", 2, 16, 14, 14, 24, 3, 3, padding=1)
        with mock.patch.dict(accelerator._TILING_CACHE, clear=True), mock.patch.object(
            AcceleratorModel, "_search_tiling", autospec=True,
            side_effect=AcceleratorModel._search_tiling,
        ) as search:
            assert model.choose_layer_tiling(first) == model.choose_layer_tiling(second)
            assert search.call_count == 1
            assert len(accelerator._TILING_CACHE) == 1


class TestEyerissParity:
    @SETTINGS
    @given(layer=conv_layers(), config=eyeriss_configs())
    def test_same_tile_dram_and_gbuf(self, layer, config):
        model = EyerissModel(config)
        vectorized = _outcome(model.run_layer, layer)
        with _hide_numpy():
            scalar = _outcome(model.run_layer, layer)
        assert vectorized == scalar
        if isinstance(scalar, str):
            return
        assert vectorized.tile == scalar.tile
        assert list(vectorized.tile) == ["n", "m", "c", "e"]
        assert vectorized.dram == scalar.dram
        assert vectorized.gbuf_accesses == scalar.gbuf_accesses

    def test_paper_layers_identical(self, vgg_layers):
        model = EyerissModel()
        for layer in vgg_layers:
            assert model._best_tile_grid(layer) == model._best_tile_scalar(layer)

    def test_infeasible_layer_error_text(self):
        giant = ConvLayer("giant", 1, 16, 3, 20000, 16, 3, 3, padding=0)
        model = EyerissModel()
        vectorized = _outcome(model.run_layer, giant)
        with _hide_numpy():
            scalar = _outcome(model.run_layer, giant)
        assert vectorized == scalar == (
            "ValueError: no RS tile of layer 'giant' fits the Eyeriss GBuf"
        )

    def test_forced_scalar_branch(self, vgg_layer_mid):
        """The no-numpy fallback through the public entry point."""
        model = EyerissModel()
        expected = model.run_layer(vgg_layer_mid)
        with _hide_numpy(), mock.patch.object(
            EyerissModel, "_best_tile_grid", side_effect=AssertionError("array path")
        ):
            assert model.run_layer(vgg_layer_mid) == expected
