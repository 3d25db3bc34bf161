"""The paper's communication-optimal dataflow (Section IV-A).

The dataflow keeps an output block of ``u x z`` Psums (``u = b*x*y``)
resident on chip and streams matching slices of inputs and weights, one input
channel (``k = 1``) at a time.  Its DRAM traffic for a tiling ``{b,z,y,x,k}``
is Eq. (14):

    Q_read = ceil(B/b)*ceil(Co/z)*ceil(Ho/y)*ceil(Wo/x)
             * (Wk*Hk*Ci*z + b*x'*y'*Ci)
    Q_write = B*Ho*Wo*Co

and the traffic is minimised when ``b*x*y ~= R*z`` and ``b*x*y*z ~= S``
(Psums get nearly all of the on-chip memory).

:func:`choose_tiling` implements the paper's selection rule plus a local
refinement search; :func:`dataflow_traffic` evaluates Eq. (14) exactly,
including boundary (partial-tile) effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.layer import ConvLayer, ceil_div
from repro.core.tiling import Tiling
from repro.core.traffic import TrafficBreakdown


def dataflow_traffic(layer: ConvLayer, tiling: Tiling, exact: bool = True) -> TrafficBreakdown:
    """DRAM traffic of the proposed dataflow for ``tiling`` (Eq. (14)).

    When ``exact`` is true the block counts use ceiling division and partial
    edge blocks are clipped to the tensor boundary, which is what the
    accelerator actually does; otherwise the closed-form approximation of the
    paper is returned.
    """
    tiling = tiling.clip(layer)
    if exact:
        return _exact_traffic(layer, tiling)
    blocks = (
        (layer.batch / tiling.b)
        * (layer.out_channels / tiling.z)
        * (layer.out_height / tiling.y)
        * (layer.out_width / tiling.x)
    )
    weight_reads = blocks * layer.kernel_height * layer.kernel_width * layer.in_channels * tiling.z
    input_reads = blocks * tiling.b * tiling.input_patch(layer) * layer.in_channels
    return TrafficBreakdown(
        input_reads=input_reads,
        weight_reads=weight_reads,
        output_reads=0.0,
        output_writes=float(layer.num_outputs),
    )


def _exact_traffic(layer: ConvLayer, tiling: Tiling) -> TrafficBreakdown:
    """Eq. (14) with integer block counts and boundary-clipped edge tiles."""
    input_reads = 0
    weight_reads = 0
    kernel_area = layer.kernel_height * layer.kernel_width

    # Iterate over the distinct tile shapes along each dimension instead of
    # every block: edge tiles may be smaller, interior tiles all match.
    for b_size, b_count in _tile_shapes(layer.batch, tiling.b):
        for z_size, z_count in _tile_shapes(layer.out_channels, tiling.z):
            for y_size, y_count in _tile_shapes(layer.out_height, tiling.y):
                for x_size, x_count in _tile_shapes(layer.out_width, tiling.x):
                    blocks = b_count * z_count * y_count * x_count
                    rows = (y_size - 1) * layer.stride + layer.kernel_height
                    cols = (x_size - 1) * layer.stride + layer.kernel_width
                    input_reads += blocks * b_size * rows * cols * layer.in_channels
                    weight_reads += blocks * kernel_area * layer.in_channels * z_size
    return TrafficBreakdown(
        input_reads=float(input_reads),
        weight_reads=float(weight_reads),
        output_reads=0.0,
        output_writes=float(layer.num_outputs),
    )


def _tile_shapes(extent: int, tile: int) -> list:
    """Distinct (tile size, count) pairs when tiling ``extent`` by ``tile``."""
    tile = min(tile, extent)
    full = extent // tile
    remainder = extent - full * tile
    shapes = []
    if full:
        shapes.append((tile, full))
    if remainder:
        shapes.append((remainder, 1))
    return shapes


@dataclass(frozen=True)
class TilingChoice:
    """A tiling together with the traffic it produces."""

    tiling: Tiling
    traffic: TrafficBreakdown

    @property
    def total(self) -> float:
        return self.traffic.total


def analytic_tiling(layer: ConvLayer, on_chip_words: int) -> Tiling:
    """The paper's closed-form tiling: ``b*x*y ~= R*z`` and ``b*x*y*z ~= S``.

    Solving the two conditions gives ``z ~= sqrt(S / R)`` and
    ``u = b*x*y ~= sqrt(S * R)``.  The spatial tile is made as square as
    possible; the batch dimension is only used when one image's output plane
    is smaller than ``u`` (the paper's ``u = b*x*y`` fallback).
    """
    reuse = layer.window_reuse
    z = max(1, min(layer.out_channels, int(round(math.sqrt(on_chip_words / reuse)))))
    u_target = max(1, int(round(math.sqrt(on_chip_words * reuse))))

    plane = layer.out_height * layer.out_width
    if u_target <= plane:
        b = 1
        side = max(1, int(round(math.sqrt(u_target))))
        y = min(layer.out_height, side)
        x = min(layer.out_width, max(1, u_target // y))
    else:
        b = min(layer.batch, max(1, u_target // plane))
        y = layer.out_height
        x = layer.out_width
    return Tiling(b=b, z=z, y=y, x=x, k=1)


def choose_tiling(
    layer: ConvLayer,
    on_chip_words: int,
    refine: bool = True,
    psum_words: int = None,
    input_buffer_words: int = None,
    weight_buffer_words: int = None,
) -> TilingChoice:
    """Pick tiling sizes for the proposed dataflow.

    Without the optional capacity arguments, the only constraint is the
    *effective on-chip memory*: Psums + one iteration's inputs and weights
    must fit in ``on_chip_words`` (this is the paper's "our dataflow" curve).
    When ``psum_words`` / ``input_buffer_words`` / ``weight_buffer_words`` are
    given, the tiling additionally respects a fixed memory split (this is the
    "our accelerator implementation" variant, which the paper reports costs an
    extra 3-4 % of DRAM traffic).

    The analytic tiling of Section IV-A seeds a local refinement search over
    neighbouring integer tilings; ``refine=False`` returns the seed directly.
    """
    seed, fits = _seed_and_fits(
        layer, on_chip_words, psum_words, input_buffer_words, weight_buffer_words
    )

    best = TilingChoice(seed, dataflow_traffic(layer, seed))
    if not refine:
        return best

    candidates = _neighbourhood(layer, seed)
    for tiling in candidates:
        tiling = tiling.clip(layer)
        if not fits(tiling):
            continue
        traffic = dataflow_traffic(layer, tiling)
        if traffic.total < best.traffic.total:
            best = TilingChoice(tiling, traffic)
    return best


def _seed_and_fits(
    layer: ConvLayer,
    on_chip_words: int,
    psum_words,
    input_buffer_words,
    weight_buffer_words,
):
    """Shared prelude of both ``choose_tiling`` backends.

    Returns the shrunken analytic seed and the scalar capacity predicate;
    keeping this in one place is what keeps the scalar and vectorized
    searches agreeing on which tilings are admissible.
    """
    if on_chip_words < 8:
        raise ValueError("on-chip capacity too small for any tiling")

    def fits(tiling: Tiling) -> bool:
        tiling = tiling.clip(layer)
        if tiling.on_chip_footprint(layer) > on_chip_words:
            return False
        if psum_words is not None and tiling.output_block_size() > psum_words:
            return False
        if input_buffer_words is not None and tiling.staged_input_words(layer) > input_buffer_words:
            return False
        if weight_buffer_words is not None and tiling.staged_weight_words() > weight_buffer_words:
            return False
        return True

    seed = analytic_tiling(layer, on_chip_words).clip(layer)
    return _shrink_to_fit(layer, seed, fits), fits


def _shrink_to_fit(layer: ConvLayer, tiling: Tiling, fits) -> Tiling:
    """Shrink a seed tiling until it satisfies the capacity predicate."""
    current = tiling
    for _ in range(64):
        if fits(current):
            return current
        # Shrink the largest contributor first: halve the spatial tile, then z.
        if current.x * current.y * current.b > current.z and (current.x > 1 or current.y > 1 or current.b > 1):
            if current.b > 1:
                current = Tiling(max(1, current.b // 2), current.z, current.y, current.x, current.k)
            elif current.y >= current.x:
                current = Tiling(current.b, current.z, max(1, current.y // 2), current.x, current.k)
            else:
                current = Tiling(current.b, current.z, current.y, max(1, current.x // 2), current.k)
        elif current.z > 1:
            current = Tiling(current.b, max(1, current.z // 2), current.y, current.x, current.k)
        else:
            return current
    return current


def _neighbourhood(layer: ConvLayer, seed: Tiling) -> list:
    """Integer tilings near the analytic seed (plus a few global candidates)."""
    z_values = _around(seed.z, layer.out_channels)
    y_values = _around(seed.y, layer.out_height)
    x_values = _around(seed.x, layer.out_width)
    b_values = _around(seed.b, layer.batch)
    candidates = []
    for b in b_values:
        for z in z_values:
            for y in y_values:
                for x in x_values:
                    candidates.append(Tiling(b=b, z=z, y=y, x=x, k=1))
    return candidates


def _around(value: int, limit: int) -> list:
    """Candidate values near ``value``: scaled, incremented and the extremes."""
    raw = {1, limit, value}
    for scale in (0.5, 0.75, 1.25, 1.5, 2.0):
        raw.add(int(round(value * scale)))
    for delta in (-2, -1, 1, 2):
        raw.add(value + delta)
    divisor_candidates = [d for d in range(max(1, value - 4), value + 5) if d >= 1]
    raw.update(divisor_candidates)
    return sorted({min(limit, max(1, v)) for v in raw})


def traffic_at_capacity(layer: ConvLayer, on_chip_words: int) -> TrafficBreakdown:
    """Convenience wrapper: best-found traffic of the dataflow at capacity ``S``."""
    return choose_tiling(layer, on_chip_words).traffic


# --------------------------------------------------------- vectorized backend


def choose_tiling_grid(
    layer: ConvLayer,
    on_chip_words: int,
    psum_words: int = None,
    input_buffer_words: int = None,
    weight_buffer_words: int = None,
) -> TilingChoice:
    """NumPy-vectorized :func:`choose_tiling`, bit-identical to the scalar one.

    The analytic seed and its :func:`_shrink_to_fit` repair stay scalar (they
    are O(1)); the expensive part -- evaluating the exact Eq. (14) traffic of
    every tiling in the refinement neighbourhood -- is done as array
    arithmetic (:func:`exact_traffic_arrays`).  Ties follow the scalar rule: the
    seed wins, then the earliest neighbourhood candidate (``numpy.argmin``
    returns the first minimum, the scalar loop replaces only on strictly
    smaller totals).
    """
    from repro.dataflows.grid import meshgrid_ravel, require_numpy

    np = require_numpy()
    seed, _ = _seed_and_fits(
        layer, on_chip_words, psum_words, input_buffer_words, weight_buffer_words
    )

    # Candidate arrays in scalar enumeration order, the seed prepended at
    # index 0 (the scalar search starts from the seed unconditionally, even
    # when the shrunken seed still violates the capacity predicate).
    b, z, y, x = meshgrid_ravel(
        _around(seed.b, layer.batch),
        _around(seed.z, layer.out_channels),
        _around(seed.y, layer.out_height),
        _around(seed.x, layer.out_width),
    )
    b = np.concatenate(([seed.b], b))
    z = np.concatenate(([seed.z], z))
    y = np.concatenate(([seed.y], y))
    x = np.concatenate(([seed.x], x))
    # clip(layer): _around already clamps to [1, extent], the seed is clipped;
    # applied anyway so the arrays cannot drift from the scalar semantics.
    b = np.minimum(b, layer.batch)
    z = np.minimum(z, layer.out_channels)
    y = np.minimum(y, layer.out_height)
    x = np.minimum(x, layer.out_width)

    # Array form of the `fits` predicate from _seed_and_fits, term for term
    # (all candidates have k = 1): Tiling.on_chip_footprint = Psum block
    # (output_block_size) + staged inputs (b * x' * y' * k) + staged weights
    # (z * k), then the optional per-buffer caps on the same three terms.
    rows = (y - 1) * layer.stride + layer.kernel_height
    cols = (x - 1) * layer.stride + layer.kernel_width
    staged_inputs = b * rows * cols
    psum_block = b * x * y * z
    mask = (psum_block + staged_inputs + z) <= on_chip_words
    if psum_words is not None:
        mask &= psum_block <= psum_words
    if input_buffer_words is not None:
        mask &= staged_inputs <= input_buffer_words
    if weight_buffer_words is not None:
        mask &= z <= weight_buffer_words
    mask[0] = True  # the seed is the incumbent regardless of feasibility

    input_f, weight_f, totals = exact_traffic_arrays(layer, b, z, y, x)
    output_writes = float(layer.num_outputs)

    best = int(np.argmin(np.where(mask, totals, np.inf)))
    tiling = Tiling(b=int(b[best]), z=int(z[best]), y=int(y[best]), x=int(x[best]), k=1)
    traffic = TrafficBreakdown(
        input_reads=float(input_f[best]),
        weight_reads=float(weight_f[best]),
        output_reads=0.0,
        output_writes=output_writes,
    )
    return TilingChoice(tiling, traffic)


def exact_traffic_arrays(layer: ConvLayer, b, z, y, x):
    """Array form of :func:`_exact_traffic` over clipped ``k = 1`` tilings.

    ``b``, ``z``, ``y`` and ``x`` are ``int64`` arrays of tile sizes already
    clipped to the layer.  The nested-loop accumulation of
    :func:`_exact_traffic` is separable over the four tiled dimensions, which
    gives the closed form

    ``input_reads  = Ci * B * Nz * (D*Ho + (Hk-D)*Ny) * (D*Wo + (Wk-D)*Nx)``
    ``weight_reads = Hk*Wk * Ci * Co * Nb * Ny * Nx``

    with ``N* = ceil(extent / tile)`` -- exact integers, identical to summing
    the boundary-clipped tiles one by one.  Returns ``(input_reads,
    weight_reads, totals)`` as ``float64`` arrays, the totals summed in
    :attr:`TrafficBreakdown.total` order so they round like the scalar ones.
    """
    from repro.dataflows.grid import ceil_div as ceil, require_numpy

    np = require_numpy()
    num_b = ceil(layer.batch, b)
    num_z = ceil(layer.out_channels, z)
    num_y = ceil(layer.out_height, y)
    num_x = ceil(layer.out_width, x)
    stride, kh, kw = layer.stride, layer.kernel_height, layer.kernel_width
    input_reads = (
        layer.in_channels
        * layer.batch
        * num_z
        * (stride * layer.out_height + (kh - stride) * num_y)
        * (stride * layer.out_width + (kw - stride) * num_x)
    )
    weight_reads = kh * kw * layer.in_channels * layer.out_channels * num_b * num_y * num_x
    input_f = input_reads.astype(np.float64)
    weight_f = weight_reads.astype(np.float64)
    totals = ((input_f + weight_f) + 0.0) + float(layer.num_outputs)
    return input_f, weight_f, totals
