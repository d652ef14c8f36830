"""repro: reproduction of the DeepSeek-V3 ISCA'25 co-design paper.

Subpackages:

* :mod:`repro.core` - units, hardware catalog, roofline machinery.
* :mod:`repro.model` - MLA/GQA attention, DeepSeekMoE, MTP, analytics.
* :mod:`repro.precision` - FP8/LogFMT formats, quantization, GEMM emulation.
* :mod:`repro.autograd` - minimal reverse-mode autograd used for training.
* :mod:`repro.training` - tiny trainable MLA+MoE model and FP8 validation.
* :mod:`repro.network` - topologies, cost/latency models, flow simulator.
* :mod:`repro.comm` - EP dispatch/combine, overlap, IBGDA, contention.
* :mod:`repro.parallel` - DualPipe schedules, MFU, cluster throughput.
* :mod:`repro.inference` - decode rooflines, TPOT limits, speculative decoding.
* :mod:`repro.serving` - request-level discrete-event serving simulator.
* :mod:`repro.reliability` - failure injection, SDC detection, checkpointing.
* :mod:`repro.obs` - unified tracing (Chrome trace-event export) and
  metrics (counters, gauges, streaming histograms) for the simulators.
* :mod:`repro.faults` - seeded fault schedules, injection and recovery
  for the serving, network-flow and training simulators.
* :mod:`repro.sweep` - deterministic parallel experiment engine with a
  content-addressed result cache and supervised execution (per-point
  timeouts, retries, poison-point quarantine) over registered targets.
* :mod:`repro.service` - long-lived asyncio experiment server (``repro
  serve``) with a bounded job queue, SSE live streaming, resumable
  journaled sessions, graceful drain, per-job deadlines and a
  per-target circuit breaker over the sweep engine.
* :mod:`repro.chaos` - seeded chaos harness: wraps any sweep target in
  process-level sabotage (kill/hang/raise/slow) to prove the platform
  recovers with byte-identical reports.
"""

__version__ = "1.11.0"
