"""Chip- and network-level system modelling.

The paper evaluates isolated layers; real deployments (and the ReGAN
baseline it builds on) map whole networks onto one provisioned chip and
pipeline the layers.  This package adds that level:

* :mod:`repro.system.network_mapper` — walk a workload network, extract
  every deconvolution layer with its activation shape, and evaluate all
  three designs per layer and in aggregate.
* :mod:`repro.system.pipeline` — ReGAN-style inter-layer pipelining:
  throughput set by the slowest stage, latency by the stage sum.
* :mod:`repro.system.chip` — a fixed chip provisioning sized for a set of
  layers; reports per-design chip area and utilization (the accelerator-
  level view under which the paper's "+21.41% for all layers" area claim
  is recovered).
"""
