"""Workload and storage mapping onto the PE array (Section IV-B, Fig. 8/9).

For one output block of shape ``(b, z, y, x)`` the reshaped output sub-matrix
(``b*x*y`` rows by ``z`` columns) is distributed over the ``p x q`` PE array:

* PE **columns** partition the ``z`` output channels -- each PE computes
  ``zs = ceil(z / q)`` channels (with a stride of ``q``, per the weight MUX
  structure of Fig. 11);
* PE **rows** partition the ``b*x*y`` output positions -- the block's spatial
  extent (and, if needed, its batch extent) is cut into a ``pb x py x px``
  grid so each PE handles a ``bs x ys x xs`` output patch.

Each PE therefore owns ``bs*ys*xs*zs`` partial sums in its LRegs.  PEs in the
same row share inputs through a GReg segment; PEs in the same column share
weights through a GReg row.  A *pass* updates every resident Psum once and
takes ``bs*ys*xs*zs`` cycles; one channel iteration needs ``k*Wk*Hk`` passes.

The mapping also accounts for the input *halos*: a PE row's patch needs
``bs * xs' * ys'`` inputs (``xs' = (xs-1)*D + Wk``), which is where the
paper's 1.67x GBuf input re-read factor comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layer import ConvLayer, ceil_div
from repro.arch.config import AcceleratorConfig


@dataclass(frozen=True)
class BlockShape:
    """The (possibly boundary-clipped) shape of one output block."""

    b: int
    z: int
    y: int
    x: int

    @property
    def outputs(self) -> int:
        return self.b * self.z * self.y * self.x


@dataclass(frozen=True)
class PEMapping:
    """How one output block maps onto the PE array."""

    block: BlockShape
    grid_batch: int
    grid_rows: int
    grid_cols: int
    batch_per_pe: int
    rows_per_pe: int
    cols_per_pe: int
    channels_per_pe: int
    used_pe_rows: int
    used_pe_cols: int
    input_rows_per_pe: int
    input_cols_per_pe: int

    @property
    def psums_per_pe(self) -> int:
        """Partial sums resident in one PE's LRegs for this block."""
        return self.batch_per_pe * self.rows_per_pe * self.cols_per_pe * self.channels_per_pe

    @property
    def input_patch_per_row(self) -> int:
        """Inputs (per channel) a PE row needs for one pass group (with halo)."""
        return self.batch_per_pe * self.input_rows_per_pe * self.input_cols_per_pe

    @property
    def used_pes(self) -> int:
        return self.used_pe_rows * self.used_pe_cols

    def cycles_per_pass(self) -> int:
        """One pass updates every resident Psum once."""
        return self.psums_per_pe


def factor_triples(value: int):
    """All ordered triples ``(a, b, c)`` with ``a*b*c == value``."""
    for a in range(1, value + 1):
        if value % a:
            continue
        rest = value // a
        for b in range(1, rest + 1):
            if rest % b:
                continue
            yield a, b, rest // b


def map_block(layer: ConvLayer, block: BlockShape, config: AcceleratorConfig) -> PEMapping:
    """Map one output block onto the PE array.

    The PE-row partition grid is chosen to (1) fit each PE's Psums in its
    LRegs, (2) minimise the per-iteration input volume read from the IGBuf
    (i.e. minimise halo waste), and (3) keep as many PE rows busy as
    possible.  The PE-column partition is fixed by the architecture: output
    channels are dealt round-robin over the ``q`` columns.
    """
    channels_per_pe = ceil_div(block.z, config.pe_cols)
    used_pe_cols = min(config.pe_cols, block.z)

    best = None
    for grid_batch, grid_rows, grid_cols in factor_triples(config.pe_rows):
        grid_batch_eff = min(grid_batch, block.b)
        grid_rows_eff = min(grid_rows, block.y)
        grid_cols_eff = min(grid_cols, block.x)
        batch_per_pe = ceil_div(block.b, grid_batch_eff)
        rows_per_pe = ceil_div(block.y, grid_rows_eff)
        cols_per_pe = ceil_div(block.x, grid_cols_eff)
        input_rows = (rows_per_pe - 1) * layer.stride + layer.kernel_height
        input_cols = (cols_per_pe - 1) * layer.stride + layer.kernel_width
        used_rows = (
            ceil_div(block.b, batch_per_pe)
            * ceil_div(block.y, rows_per_pe)
            * ceil_div(block.x, cols_per_pe)
        )
        psums = batch_per_pe * rows_per_pe * cols_per_pe * channels_per_pe
        fits = psums <= config.lreg_words_per_pe
        halo_volume = used_rows * batch_per_pe * input_rows * input_cols
        key = (not fits, halo_volume, -used_rows, psums)
        candidate = PEMapping(
            block=block,
            grid_batch=grid_batch_eff,
            grid_rows=grid_rows_eff,
            grid_cols=grid_cols_eff,
            batch_per_pe=batch_per_pe,
            rows_per_pe=rows_per_pe,
            cols_per_pe=cols_per_pe,
            channels_per_pe=channels_per_pe,
            used_pe_rows=min(used_rows, config.pe_rows),
            used_pe_cols=used_pe_cols,
            input_rows_per_pe=input_rows,
            input_cols_per_pe=input_cols,
        )
        if best is None or key < best[0]:
            best = (key, candidate)
    return best[1]


@dataclass(frozen=True)
class IterationCost:
    """Access counts and cycles of one channel iteration of one block."""

    cycles: int
    dram_input_reads: int
    dram_weight_reads: int
    igbuf_writes: int
    igbuf_reads: int
    wgbuf_writes: int
    wgbuf_reads: int
    greg_writes: int
    lreg_writes: int
    useful_macs: int


def iteration_cost(
    layer: ConvLayer,
    block: BlockShape,
    mapping: PEMapping,
    config: AcceleratorConfig,
    channels: int = 1,
) -> IterationCost:
    """Cost of loading ``channels`` input channels and updating the block once.

    The loaded weights are read from the WGBuf exactly once; the loaded
    inputs are read from the IGBuf once per PE row that needs them (with the
    halo overhead).  GReg writes account for the duplication of inputs and
    weights across PE groups (all group rows hold the same weights, all group
    columns hold the same inputs).
    """
    kernel_area = layer.kernel_height * layer.kernel_width
    input_rows = (block.y - 1) * layer.stride + layer.kernel_height
    input_cols = (block.x - 1) * layer.stride + layer.kernel_width

    dram_input_reads = block.b * input_rows * input_cols * channels
    dram_weight_reads = block.z * channels * kernel_area

    igbuf_writes = dram_input_reads
    wgbuf_writes = dram_weight_reads
    igbuf_reads = mapping.used_pe_rows * mapping.input_patch_per_row * channels
    wgbuf_reads = dram_weight_reads

    greg_writes = (
        config.num_group_rows * wgbuf_reads + config.num_group_cols * igbuf_reads
    )

    passes = channels * kernel_area
    cycles = passes * mapping.cycles_per_pass()
    lreg_writes = mapping.used_pes * mapping.cycles_per_pass() * passes
    useful_macs = block.outputs * channels * kernel_area
    return IterationCost(
        cycles=cycles,
        dram_input_reads=dram_input_reads,
        dram_weight_reads=dram_weight_reads,
        igbuf_writes=igbuf_writes,
        igbuf_reads=igbuf_reads,
        wgbuf_writes=wgbuf_writes,
        wgbuf_reads=wgbuf_reads,
        greg_writes=greg_writes,
        lreg_writes=lreg_writes,
        useful_macs=useful_macs,
    )
