"""Tile-exact analytic simulator of the proposed accelerator (Section V).

:class:`AcceleratorModel` executes a layer's schedule at tile granularity:
it walks every distinct output-block shape produced by the chosen tiling
(interior blocks plus boundary-clipped edge blocks), maps each onto the PE
array (:mod:`repro.arch.mapping`) and accumulates exact access counts for the
DRAM, the two GBufs, the GRegs and the LRegs, together with cycle counts and
utilisation statistics.  Per-MAC simulation is unnecessary because every
quantity the paper reports is a sum over tiles; the functional simulator
(:mod:`repro.arch.functional`) cross-checks these counters on small layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import AcceleratorConfig
from repro.arch.mapping import BlockShape, factor_triples, iteration_cost, map_block
from repro.core.layer import ConvLayer, ceil_div
from repro.core.optimal_dataflow import (
    choose_tiling,
    choose_tiling_grid,
    dataflow_traffic,
    exact_traffic_arrays,
)
from repro.core.tiling import Tiling
from repro.core.traffic import BYTES_PER_WORD, TrafficBreakdown
from repro.engine.cache import layer_signature


@dataclass(frozen=True)
class LayerRunResult:
    """All access counts and statistics for one layer on one configuration."""

    layer_name: str
    config_name: str
    tiling: Tiling
    macs: int
    useful_macs: int
    dram: TrafficBreakdown
    igbuf_reads: int
    igbuf_writes: int
    wgbuf_reads: int
    wgbuf_writes: int
    greg_writes: int
    lreg_writes: int
    lreg_reads: int
    compute_cycles: int
    waiting_cycles: int
    utilization: dict = field(default_factory=dict)

    # ------------------------------------------------------------ aggregates

    @property
    def gbuf_reads(self) -> int:
        return self.igbuf_reads + self.wgbuf_reads

    @property
    def gbuf_writes(self) -> int:
        return self.igbuf_writes + self.wgbuf_writes

    @property
    def gbuf_accesses(self) -> int:
        return self.gbuf_reads + self.gbuf_writes

    @property
    def reg_accesses(self) -> int:
        """Register access volume as reported in Fig. 17 (LReg + GReg writes)."""
        return self.lreg_writes + self.lreg_reads + self.greg_writes

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.waiting_cycles

    @property
    def dram_accesses(self) -> float:
        return self.dram.total


@dataclass(frozen=True)
class NetworkRunResult:
    """Aggregated result over a list of layers."""

    config_name: str
    layers: tuple

    @property
    def macs(self) -> int:
        return sum(result.macs for result in self.layers)

    @property
    def dram(self) -> TrafficBreakdown:
        total = TrafficBreakdown()
        for result in self.layers:
            total = total + result.dram
        return total

    @property
    def gbuf_accesses(self) -> int:
        return sum(result.gbuf_accesses for result in self.layers)

    @property
    def reg_accesses(self) -> int:
        return sum(result.reg_accesses for result in self.layers)

    @property
    def compute_cycles(self) -> int:
        return sum(result.compute_cycles for result in self.layers)

    @property
    def waiting_cycles(self) -> int:
        return sum(result.waiting_cycles for result in self.layers)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.waiting_cycles

    def utilization(self, key: str) -> float:
        """Cycle-weighted average utilisation across layers."""
        total_cycles = sum(result.compute_cycles for result in self.layers)
        if not total_cycles:
            return 0.0
        weighted = sum(
            result.utilization.get(key, 0.0) * result.compute_cycles for result in self.layers
        )
        return weighted / total_cycles


class AcceleratorModel:
    """Analytic model of the proposed accelerator for one configuration."""

    def __init__(self, config: AcceleratorConfig, dram_bandwidth_bytes_per_s: float = 6.4e9):
        self.config = config
        self.dram_bandwidth_bytes_per_s = dram_bandwidth_bytes_per_s

    # ------------------------------------------------------------------ tiling

    def choose_layer_tiling(self, layer: ConvLayer) -> Tiling:
        """Tiling for ``layer`` under this implementation's fixed memory split.

        Constraints: the block's Psums must fit the LRegs (both in total and
        per PE), one iteration's inputs the IGBuf, and one pass's weights
        (``z`` words) the WGBuf.  Candidate tilings are aligned to the PE
        array where possible (``z`` a multiple of the column count, the
        spatial tile divisible by the row grid) so edge waste stays small,
        exactly as the paper's implementations do; among the candidates the
        one with the least DRAM traffic wins, ties broken by PE waste.

        The search is memoized by (configuration, layer shape): the layer's
        name only reaches the error message.
        """
        cache_key = (self.config, layer_signature(layer))
        cached = _TILING_CACHE.get(cache_key)
        if cached is None:
            from repro.dataflows.grid import numpy_available

            cached = self._search_tiling(layer, vectorized=numpy_available())
            _TILING_CACHE[cache_key] = cached
        return cached

    def _search_tiling(self, layer: ConvLayer, vectorized: bool) -> Tiling:
        """Uncached tiling search; both backends choose the same tiling.

        ``vectorized`` evaluates the capacity checks and Eq. (14) traffic of
        every candidate as arrays; the scalar branch is the no-numpy
        fallback and the test oracle.
        """
        candidates = list(self._candidate_tilings(layer, vectorized))
        if vectorized:
            near_optimal = self._near_optimal_grid(layer, candidates)
        else:
            near_optimal = self._near_optimal_scalar(layer, candidates)
        if not near_optimal:
            raise ValueError(
                f"{self.config.name}: no tiling of layer {layer.name!r} fits the "
                "on-chip memories"
            )
        # Two-pass selection: among the tilings within 2% of the minimum DRAM
        # traffic, keep the one that wastes the least PE work and LReg space
        # (the implementations trade a hair of traffic for full PE rows).
        # ``min`` keeps the first of equal keys, in candidate order.
        return min(
            near_optimal,
            key=lambda item: (self._waste(layer, item[1]), item[0]),
        )[1]

    def _near_optimal_scalar(self, layer: ConvLayer, candidates: list) -> list:
        """``(traffic, tiling)`` of the fitting candidates within 2% of the best."""
        fitting = [
            (dataflow_traffic(layer, tiling).total, tiling)
            for tiling in candidates
            if self._fits(layer, tiling)
        ]
        if not fitting:
            return []
        min_traffic = min(traffic for traffic, _ in fitting)
        return [
            (traffic, tiling) for traffic, tiling in fitting if traffic <= 1.02 * min_traffic
        ]

    def _near_optimal_grid(self, layer: ConvLayer, candidates: list) -> list:
        """Array form of :meth:`_near_optimal_scalar`, same list in the same order.

        :meth:`_fits` term for term: the psum, IGBuf and WGBuf caps, then the
        LReg check.  ``map_block`` ranks fitting partitions first, so its
        mapping fits exactly when *some* partition grid of the PE rows keeps
        ``bs*ys*xs*zs`` Psums per PE within the LRegs.
        """
        from repro.dataflows.grid import ceil_div as grid_ceil_div, require_numpy

        np = require_numpy()
        config = self.config
        b, z, y, x = (
            np.array([getattr(tiling, axis) for tiling in candidates], dtype=np.int64)
            for axis in "bzyx"
        )
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        mask = b * x * y * z <= config.psum_words
        mask &= b * rows * cols <= config.igbuf_words
        mask &= z <= config.wgbuf_words
        channels_per_pe = grid_ceil_div(z, config.pe_cols)
        lreg_fits = np.zeros_like(mask)
        for grid_batch, grid_rows, grid_cols in factor_triples(config.pe_rows):
            psums = (
                grid_ceil_div(b, np.minimum(grid_batch, b))
                * grid_ceil_div(y, np.minimum(grid_rows, y))
                * grid_ceil_div(x, np.minimum(grid_cols, x))
                * channels_per_pe
            )
            lreg_fits |= psums <= config.lreg_words_per_pe
        mask &= lreg_fits
        if not mask.any():
            return []
        _, _, totals = exact_traffic_arrays(layer, b, z, y, x)
        min_traffic = totals[mask].min()
        near = np.flatnonzero(mask & (totals <= 1.02 * min_traffic))
        return [(float(totals[index]), candidates[index]) for index in near]

    def _candidate_tilings(self, layer: ConvLayer, vectorized: bool):
        """Candidate tilings: the free-split optimum plus PE-aligned variants.

        The PE-aligned candidates are built bottom-up from per-PE tile shapes
        ``(zs, ys, xs)`` and an array partition grid, so interior blocks incur
        no padding waste and each PE's Psums provably fit its LRegs.  Every
        candidate is clipped to the layer and emitted once, in a fixed order.
        """
        config = self.config
        free_split = choose_tiling_grid if vectorized else choose_tiling
        free_choice = free_split(
            layer,
            config.effective_on_chip_words,
            psum_words=config.psum_words,
            input_buffer_words=config.igbuf_words,
            weight_buffer_words=config.wgbuf_words,
        )
        seen = set()

        def emit(tiling: Tiling):
            tiling = tiling.clip(layer)
            key = (tiling.b, tiling.z, tiling.y, tiling.x, tiling.k)
            if key not in seen:
                seen.add(key)
                yield tiling

        yield from emit(free_choice.tiling)

        lreg = config.lreg_words_per_pe
        plane = layer.out_height * layer.out_width
        max_zs = min(ceil_div(layer.out_channels, config.pe_cols), lreg)
        for zs in range(1, max_zs + 1):
            z = min(layer.out_channels, zs * config.pe_cols, config.wgbuf_words)
            positions_cap = lreg // zs
            if positions_cap < 1:
                continue
            # Whole-plane blocks with batch tiling (small feature maps).
            max_batch = min(layer.batch, max(1, (config.pe_rows * positions_cap) // plane))
            for b in range(1, max_batch + 1):
                yield from emit(Tiling(b=b, z=z, y=layer.out_height, x=layer.out_width, k=1))
            # Spatially tiled blocks aligned to an array partition grid.
            for grid_rows in _divisors(config.pe_rows):
                grid_cols = config.pe_rows // grid_rows
                max_ys = min(ceil_div(layer.out_height, grid_rows), positions_cap)
                for ys in range(1, max_ys + 1):
                    xs = min(ceil_div(layer.out_width, grid_cols), positions_cap // ys)
                    if xs < 1:
                        continue
                    yield from emit(
                        Tiling(b=1, z=z, y=ys * grid_rows, x=xs * grid_cols, k=1)
                    )

    def _fits(self, layer: ConvLayer, tiling: Tiling) -> bool:
        config = self.config
        if tiling.output_block_size() > config.psum_words:
            return False
        if tiling.staged_input_words(layer) > config.igbuf_words:
            return False
        if tiling.staged_weight_words() > config.wgbuf_words:
            return False
        block = BlockShape(b=tiling.b, z=tiling.z, y=tiling.y, x=tiling.x)
        mapping = map_block(layer, block, config)
        return mapping.psums_per_pe <= config.lreg_words_per_pe

    def _waste(self, layer: ConvLayer, tiling: Tiling) -> float:
        """Fraction of PE work wasted on padding within an interior block."""
        block = BlockShape(b=tiling.b, z=tiling.z, y=tiling.y, x=tiling.x)
        mapping = map_block(layer, block, self.config)
        allocated = mapping.used_pes * mapping.psums_per_pe
        return allocated / block.outputs - 1.0 if block.outputs else 0.0

    # --------------------------------------------------------------------- run

    def run_layer(self, layer: ConvLayer, tiling: Tiling = None) -> LayerRunResult:
        """Execute one layer's schedule analytically and return all counters."""
        if tiling is None:
            tiling = self.choose_layer_tiling(layer)
        tiling = tiling.clip(layer)

        totals = {
            "dram_input_reads": 0,
            "dram_weight_reads": 0,
            "dram_output_writes": 0,
            "igbuf_reads": 0,
            "igbuf_writes": 0,
            "wgbuf_reads": 0,
            "wgbuf_writes": 0,
            "greg_writes": 0,
            "lreg_writes": 0,
            "lreg_reads": 0,
            "compute_cycles": 0,
            "waiting_cycles": 0,
            "useful_macs": 0,
        }
        lreg_occupancy_cycles = 0.0
        greg_occupancy_cycles = 0.0
        igbuf_occupancy_cycles = 0.0
        wgbuf_occupancy_cycles = 0.0

        iterations = ceil_div(layer.in_channels, tiling.k)
        bytes_per_cycle = self.dram_bandwidth_bytes_per_s / self.config.clock_hz

        for block, count in self._block_shapes(layer, tiling):
            mapping = map_block(layer, block, self.config)
            cost = iteration_cost(layer, block, mapping, self.config, channels=tiling.k)

            totals["dram_input_reads"] += count * iterations * cost.dram_input_reads
            totals["dram_weight_reads"] += count * iterations * cost.dram_weight_reads
            totals["dram_output_writes"] += count * block.outputs
            totals["igbuf_reads"] += count * iterations * cost.igbuf_reads
            totals["igbuf_writes"] += count * iterations * cost.igbuf_writes
            totals["wgbuf_reads"] += count * iterations * cost.wgbuf_reads
            totals["wgbuf_writes"] += count * iterations * cost.wgbuf_writes
            totals["greg_writes"] += count * iterations * cost.greg_writes
            totals["lreg_writes"] += count * iterations * cost.lreg_writes
            # Draining a finished block reads every Psum once.
            totals["lreg_reads"] += count * block.outputs
            totals["compute_cycles"] += count * iterations * cost.cycles
            totals["useful_macs"] += count * iterations * cost.useful_macs

            # Waiting time: with double-buffered GBufs the next iteration's
            # operands stream while the current one computes; each iteration
            # stalls only when its DRAM transfer outlasts the computation.
            load_words = cost.dram_input_reads + cost.dram_weight_reads
            load_cycles = load_words * BYTES_PER_WORD / bytes_per_cycle
            per_iter_wait = max(0.0, load_cycles - cost.cycles)
            # The first iteration of each block cannot be hidden at all.
            first_fill = load_cycles
            drain_cycles = block.outputs * BYTES_PER_WORD / bytes_per_cycle
            totals["waiting_cycles"] += int(
                count * (per_iter_wait * max(0, iterations - 1) + first_fill + max(0.0, drain_cycles - cost.cycles))
            )

            block_cycles = count * iterations * cost.cycles
            lreg_occupancy_cycles += block.outputs / self.config.psum_words * block_cycles
            greg_words = self.config.greg_bytes // BYTES_PER_WORD
            greg_used = (
                self.config.num_group_rows * block.z
                + self.config.num_group_cols
                * mapping.used_pe_rows
                * mapping.input_rows_per_pe
                * mapping.input_cols_per_pe
            )
            greg_occupancy_cycles += min(1.0, greg_used / greg_words) * block_cycles
            igbuf_occupancy_cycles += (
                min(1.0, cost.dram_input_reads / self.config.igbuf_words) * block_cycles
            )
            wgbuf_occupancy_cycles += (
                min(1.0, cost.dram_weight_reads / self.config.wgbuf_words) * block_cycles
            )

        compute_cycles = totals["compute_cycles"]
        utilization = self._utilization(
            layer,
            compute_cycles,
            totals["useful_macs"],
            lreg_occupancy_cycles,
            greg_occupancy_cycles,
            igbuf_occupancy_cycles,
            wgbuf_occupancy_cycles,
        )

        dram = TrafficBreakdown(
            input_reads=float(totals["dram_input_reads"]),
            weight_reads=float(totals["dram_weight_reads"]),
            output_reads=0.0,
            output_writes=float(totals["dram_output_writes"]),
        )
        return LayerRunResult(
            layer_name=layer.name,
            config_name=self.config.name,
            tiling=tiling,
            macs=layer.macs,
            useful_macs=layer.macs,
            dram=dram,
            igbuf_reads=totals["igbuf_reads"],
            igbuf_writes=totals["igbuf_writes"],
            wgbuf_reads=totals["wgbuf_reads"],
            wgbuf_writes=totals["wgbuf_writes"],
            greg_writes=totals["greg_writes"],
            lreg_writes=totals["lreg_writes"],
            lreg_reads=totals["lreg_reads"],
            compute_cycles=compute_cycles,
            waiting_cycles=totals["waiting_cycles"],
            utilization=utilization,
        )

    def run_network(self, layers: list) -> NetworkRunResult:
        """Run every layer and return the aggregated result."""
        return NetworkRunResult(
            config_name=self.config.name,
            layers=tuple(self.run_layer(layer) for layer in layers),
        )

    # ----------------------------------------------------------------- helpers

    def _block_shapes(self, layer: ConvLayer, tiling: Tiling):
        """Distinct block shapes and how many blocks have each shape."""
        return block_shapes(layer, tiling)

    def _utilization(
        self,
        layer: ConvLayer,
        compute_cycles: int,
        lreg_write_macs: int,
        lreg_occupancy_cycles: float,
        greg_occupancy_cycles: float,
        igbuf_occupancy_cycles: float,
        wgbuf_occupancy_cycles: float,
    ) -> dict:
        if compute_cycles == 0:
            return {key: 0.0 for key in ("pe", "lreg", "greg", "gbuf", "memory")}
        pe = layer.macs / (self.config.num_pes * compute_cycles)
        lreg = lreg_occupancy_cycles / compute_cycles
        greg = greg_occupancy_cycles / compute_cycles
        igbuf = igbuf_occupancy_cycles / compute_cycles
        wgbuf = wgbuf_occupancy_cycles / compute_cycles
        gbuf = (
            igbuf * self.config.igbuf_words + wgbuf * self.config.wgbuf_words
        ) / self.config.gbuf_words
        greg_words = self.config.greg_bytes // BYTES_PER_WORD
        memory_words = self.config.psum_words + self.config.gbuf_words + greg_words
        memory = (
            lreg * self.config.psum_words + gbuf * self.config.gbuf_words + greg * greg_words
        ) / memory_words
        return {
            "pe": min(1.0, pe),
            "lreg": min(1.0, lreg),
            "greg": min(1.0, greg),
            "gbuf": min(1.0, gbuf),
            "memory": min(1.0, memory),
        }


#: Cache of chosen tilings keyed by (configuration, layer signature), so
#: same-shape layers share one search and AcceleratorModel instances share
#: the cache.
_TILING_CACHE: dict = {}


def block_shapes(layer: ConvLayer, tiling: Tiling):
    """Distinct output-block shapes of ``tiling`` on ``layer`` with counts.

    Yields ``(BlockShape, count)`` pairs covering the whole layer (interior
    blocks plus boundary-clipped edge blocks).  Shared by the analytic model
    and the tile-level timing simulator (:mod:`repro.timing`), which must
    walk the exact same block decomposition for their cycle totals to agree.
    """
    for b_size, b_count in _tile_shapes(layer.batch, tiling.b):
        for z_size, z_count in _tile_shapes(layer.out_channels, tiling.z):
            for y_size, y_count in _tile_shapes(layer.out_height, tiling.y):
                for x_size, x_count in _tile_shapes(layer.out_width, tiling.x):
                    count = b_count * z_count * y_count * x_count
                    yield BlockShape(b=b_size, z=z_size, y=y_size, x=x_size), count


def _divisors(value: int) -> list:
    """All positive divisors of ``value`` in ascending order."""
    return [d for d in range(1, value + 1) if value % d == 0]


def _tile_shapes(extent: int, tile: int) -> list:
    """Distinct (size, count) pairs when ``extent`` is tiled by ``tile``."""
    tile = min(tile, extent)
    full = extent // tile
    remainder = extent - full * tile
    shapes = []
    if full:
        shapes.append((tile, full))
    if remainder:
        shapes.append((remainder, 1))
    return shapes
