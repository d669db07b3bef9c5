"""RecMG reproduction: ML-guided memory optimization for DLRM inference
on tiered memory (HPCA 2025).

Packages:

* :mod:`repro.nn` -- numpy autograd + LSTM/attention substrate
* :mod:`repro.traces` -- embedding-access traces (synthetic generator,
  reuse-distance analysis, dataset presets)
* :mod:`repro.cache` -- LRU/LFU/RRIP/Belady/OPTgen/Hawkeye/Mockingjay and
  the priority GPU buffer (paper Algorithms 1-2)
* :mod:`repro.prefetch` -- Bingo/Domino/Berti/BOP/MAB/TransFetch/Voyager
  baselines and evaluation metrics
* :mod:`repro.core` -- the RecMG caching + prefetch models and manager
* :mod:`repro.dlrm` -- numpy DLRM, tiered-memory latency model, end-to-end
  inference timing, linear performance model
* :mod:`repro.serving` -- serving front-end (admission queue, batcher,
  model-guided priority provider, latency/SLO metrics)
* :mod:`repro.analysis` -- geomean and ASCII table/figure rendering
"""

from . import nn, traces, cache, prefetch, core, dlrm, serving, analysis

__version__ = "1.0.0"

__all__ = ["nn", "traces", "cache", "prefetch", "core", "dlrm", "serving",
           "analysis", "__version__"]
