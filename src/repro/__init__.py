"""Reproduction of "Communication Lower Bound in Convolution Accelerators" (HPCA 2020).

Public API overview
-------------------

* :class:`repro.core.layer.ConvLayer` -- describe a convolutional or FC layer.
* :func:`repro.core.lower_bound.practical_lower_bound` -- the off-chip
  communication lower bound of Eq. (15).
* :func:`repro.core.optimal_dataflow.choose_tiling` -- the paper's
  communication-optimal tiling and its DRAM traffic.
* :mod:`repro.dataflows` -- the Fig. 12 baseline dataflows and the cross-
  dataflow "found minimum" search.
* :mod:`repro.engine` -- the parallel, memoized :class:`SearchEngine` that
  deduplicates tiling searches and fans them out over worker processes.
* :mod:`repro.arch` -- the accelerator architecture model (Table I
  implementations, access counting, cycles, utilisation).
* :mod:`repro.energy` -- the Table II energy model and the DRAM model.
* :mod:`repro.eyeriss` -- the Eyeriss row-stationary baseline.
* :mod:`repro.workloads` -- VGG-16 (the paper's workload), AlexNet, ResNet-18
  and synthetic layers.
* :mod:`repro.analysis` -- one driver per paper table/figure.

Quick example::

    from repro import ConvLayer, practical_lower_bound, choose_tiling

    layer = ConvLayer("conv3_2", batch=3, in_channels=256, in_height=56,
                      in_width=56, out_channels=256, kernel_height=3,
                      kernel_width=3, padding=1)
    S = 66 * 1024 // 2                      # 66 KB of on-chip memory, in words
    bound = practical_lower_bound(layer, S)
    choice = choose_tiling(layer, S)
    print(choice.tiling.describe(), choice.traffic.total / bound)
"""

from repro.core.layer import ConvLayer
from repro.core.tiling import Tiling
from repro.core.traffic import TrafficBreakdown
from repro.core.lower_bound import (
    practical_lower_bound,
    theorem2_lower_bound,
    reg_lower_bound,
    gbuf_lower_bound,
    naive_traffic,
)
from repro.core.optimal_dataflow import choose_tiling, dataflow_traffic
from repro.arch.config import AcceleratorConfig, PAPER_IMPLEMENTATIONS, paper_implementation
from repro.arch.accelerator import AcceleratorModel
from repro.energy.model import EnergyModel
from repro.engine import SearchEngine, get_default_engine, set_default_engine
from repro.workloads.vgg import vgg16_conv_layers
from repro.workloads.registry import (
    get_workload,
    list_workloads,
    register_workload,
    workload_names,
)

__version__ = "1.9.0"

__all__ = [
    "ConvLayer",
    "Tiling",
    "TrafficBreakdown",
    "practical_lower_bound",
    "theorem2_lower_bound",
    "reg_lower_bound",
    "gbuf_lower_bound",
    "naive_traffic",
    "choose_tiling",
    "dataflow_traffic",
    "AcceleratorConfig",
    "PAPER_IMPLEMENTATIONS",
    "paper_implementation",
    "AcceleratorModel",
    "EnergyModel",
    "SearchEngine",
    "get_default_engine",
    "set_default_engine",
    "vgg16_conv_layers",
    "get_workload",
    "list_workloads",
    "register_workload",
    "workload_names",
    "__version__",
]
