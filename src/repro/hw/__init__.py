"""Hardware models (substrate S2): GPUs, CPUs, PCI-e, nodes.

The paper ran on real Tesla S1070 hardware; this package substitutes a
calibrated performance model (see DESIGN.md section 2).  Components:

* :mod:`~repro.hw.specs` — spec records + the NCSA Accelerator preset
* :mod:`~repro.hw.memory` — device-memory allocator (1 GB budget real)
* :mod:`~repro.hw.kernel` — roofline kernel cost model
* :mod:`~repro.hw.gpu` / :mod:`~repro.hw.pcie` / :mod:`~repro.hw.cpu`
  — contention-aware device models on the DES
* :mod:`~repro.hw.node` — node assembly

The package imports none of them: callers import the module they need.
:mod:`~repro.hw.kernel` is the one module the real backends load (the
kernel descriptors every job carries); the rest build on the
discrete-event engine and belong to the ``"sim"`` backend.
"""
