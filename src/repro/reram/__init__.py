"""ReRAM device and crossbar circuit models.

Functional (value-level) simulation of the PIM fabric all three designs
share (paper Fig. 1):

* :mod:`repro.reram.device` — 1T1R cell: conductance range, multi-level
  programming grid.
* :mod:`repro.reram.bitslice` — weight bit-slicing across cells and input
  bit-serial streaming, with differential (positive/negative) columns.
* :mod:`repro.reram.crossbar` — analog vector-matrix multiply with optional
  conductance variation, read noise and a first-order IR-drop model.
* :mod:`repro.reram.adc` — read circuit / integrate-and-fire quantization.
* :mod:`repro.reram.shift_adder` — shift-and-add accumulation across input
  bits and weight slices.
* :mod:`repro.reram.program` — write-verify programming loop.
* :mod:`repro.reram.pipeline` — the composed bit-accurate VMM used by the
  accelerator designs; exactly reproduces integer matmul when the ADC has
  full resolution.
* :mod:`repro.reram.drift` — power-law conductance retention drift.
* :mod:`repro.reram.batch` — vectorized Monte-Carlo fidelity sampling
  over (seed, time) grids, bit-identical to the scalar modules.

Seeding contract
----------------
All randomness in this package derives from
``np.random.SeedSequence`` spawning — there is no shared mutable
generator state.  :class:`~repro.reram.noise.NoiseModel` derives one
child generator per operation from ``SeedSequence(seed,
spawn_key=(domain, stream))``, where the *domain* separates operation
types (programming variation, stuck-at faults, read noise) and the
*stream* separates operations within a type.  Consequences callers can
rely on:

* identical ``(seed, domain, stream)`` -> bit-identical draws, in any
  process, at any point of any call sequence;
* operations of one type never shift the draws of another (enabling
  read noise cannot change a stuck-at pattern, and vice versa);
* the write-verify programmer samples its stuck-at pattern **once** per
  session and holds it fixed across verify rounds — defective cells
  stay defective;
* the batched fidelity sampler keys every stream by values (the seed,
  the bit pattern of the time), so its results are independent of
  batch order and sharding, and bit-identical to the scalar oracle.

Callers that omit ``stream`` consume a per-model monotone counter per
domain: repeated calls draw fresh (but reproducible) variates — the
behaviour the crossbar pipeline wants for per-tile programming and
per-read noise.
"""
