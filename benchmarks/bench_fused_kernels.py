"""Fused map+partial-reduce kernels vs the staged pipeline.

Fusing map with partial reduce keeps the per-rank table resident
instead of streaming a pair per input element, so the bytes handed to
the exchange collapse for KMC/WO/LR, and SIO's per-chunk combine merges
like keys before the shuffle.
"""

from repro.harness import fused_kernels


def test_fused_kernels(benchmark, save_result, check):
    result = benchmark.pedantic(fused_kernels, rounds=1, iterations=1)
    save_result("fused_kernels", result.render())

    f = result.findings
    benchmark.extra_info.update({k: round(v, 2) for k, v in f.items()})

    # The headline: fused KMC/WO emit one resident table instead of a
    # pair stream — orders of magnitude fewer exchange bytes.
    check(f["kmc_emission_reduction"] > 4,
          "fused KMC must emit far fewer bytes than the raw port")
    check(f["wo_emission_reduction"] > 4,
          "fused WO must emit far fewer bytes than the raw port")
    # SIO's per-chunk combine merges duplicate keys before the shuffle
    # (the bench key space is chosen dense enough to have some).
    check(f["sio_emission_reduction"] > 1.0,
          "fused SIO must compact duplicate keys per chunk")
