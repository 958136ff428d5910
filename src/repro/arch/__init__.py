"""NeuroSim+-style analytical architecture model (65 nm, 2 GHz).

Estimates latency, energy and area of a deconvolution accelerator design
from its crossbar geometry and per-cycle activity.  The component taxonomy
follows the paper's Table II:

* array: computation (c), wordline driving (wd), bitline driving (bd)
* periphery: multiplexer (mux), decoder (dec), read circuit (rc),
  shift adder (sa)

plus the padding-free design's extra overlap-adder and crop units.
Constants live in :class:`repro.arch.tech.TechnologyParams`; they are
*calibrated* to reproduce the paper's relative results (see
:mod:`repro.arch.tech` and ``tests/arch/test_calibration.py``).
"""
