"""Analytic flop / memory-traffic estimates for the CRoCCo kernels.

These per-grid-point budgets price the simulated device's launch records
and, downstream, the hierarchical roofline of Fig. 4.  They are order-of-
magnitude counts for the 5-component, curvilinear, double-precision
kernels:

- **WENO** (per direction): primitive recovery, metric-weighted flux
  assembly, Lax-Friedrichs splitting, and 4-candidate reconstruction of
  both split parts for 5 components — roughly 600 flops/point.  DRAM
  traffic is amplified well beyond the minimal state size because the GPU
  port stages intermediate results in *global-memory scratch arrays*
  (Sec. IV-B: one-/two-dimensional locals were replaced by full 3D arrays
  written by one ``ParallelFor`` and re-read by the next), so each point
  moves state + metrics + several scratch fields ~ 400 B.
- **Viscous**: two derivative passes over velocity/temperature plus stress
  assembly — ~450 flops and ~300 B per point.
- **Update** (RK stage): a saxpy over 5 components — trivially
  bandwidth-bound.
- register pressure: the paper reports theoretical occupancy limited to
  12.5% by "very high register usage"; 255 registers/thread reproduces
  exactly that bound on a V100 (65536 regs / 255 -> 256 threads of 2048).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as _dc_replace


@dataclass(frozen=True)
class KernelBudget:
    """Per-point cost estimates for one kernel."""

    name: str
    flops_per_point: float
    dram_bytes_per_point: float
    l2_amplification: float
    l1_amplification: float
    registers_per_thread: int


WENO_BUDGET = KernelBudget(
    name="WENO",
    flops_per_point=600.0,
    dram_bytes_per_point=400.0,
    l2_amplification=1.8,
    l1_amplification=4.5,
    registers_per_thread=255,
)

VISCOUS_BUDGET = KernelBudget(
    name="Viscous",
    flops_per_point=450.0,
    dram_bytes_per_point=300.0,
    l2_amplification=1.8,
    l1_amplification=4.0,
    registers_per_thread=255,
)

UPDATE_BUDGET = KernelBudget(
    name="Update",
    flops_per_point=20.0,
    dram_bytes_per_point=120.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=64,
)

#: the fused all-directions WENO launch (``WENOxy``/``WENOxyz`` on the
#: ``fused`` execution target).  npoints for the fused launch is
#: dim * nvalid, so flops/point stays 600 (same arithmetic as the
#: per-direction sweeps) while DRAM bytes/point drops: primitives are
#: computed once for all directions and intermediates live in reused
#: scratch instead of round-tripping global-memory staging arrays —
#: the Sec. IV-B scratch traffic the fusion removes.
FUSED_WENO_BUDGET = KernelBudget(
    name="WENOxyz",
    flops_per_point=600.0,
    dram_bytes_per_point=280.0,
    l2_amplification=2.2,
    l1_amplification=5.0,
    registers_per_thread=255,
)

COMPUTEDT_BUDGET = KernelBudget(
    name="ComputeDt",
    flops_per_point=40.0,
    dram_bytes_per_point=72.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=64,
)

# -- AMR-substrate budgets ---------------------------------------------------
# The FillPatch/regrid machinery is copy-dominated: a couple of flops per
# point (index arithmetic is free on the roofline; the nonzero count keeps
# the arithmetic-intensity model well-defined) moving one or two 8-byte
# components each way.  Interpolation does real arithmetic — 8 corner
# weights x 5 components for trilinear, more for WENO — so it gets a
# compute budget between the copies and the flux kernels.

FILLBOUNDARY_BUDGET = KernelBudget(
    name="FillBoundary",
    flops_per_point=2.0,
    dram_bytes_per_point=16.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=32,
)

PARALLELCOPY_BUDGET = KernelBudget(
    name="ParallelCopy",
    flops_per_point=2.0,
    dram_bytes_per_point=16.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=32,
)

INTERP_BUDGET = KernelBudget(
    name="Interp",
    flops_per_point=60.0,
    dram_bytes_per_point=96.0,
    l2_amplification=1.2,
    l1_amplification=1.5,
    registers_per_thread=128,
)

AVERAGEDOWN_BUDGET = KernelBudget(
    name="AverageDown",
    flops_per_point=10.0,
    dram_bytes_per_point=72.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=64,
)

TAGGING_BUDGET = KernelBudget(
    name="Tagging",
    flops_per_point=12.0,
    dram_bytes_per_point=24.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=64,
)

BCFILL_BUDGET = KernelBudget(
    name="BCFill",
    flops_per_point=4.0,
    dram_bytes_per_point=16.0,
    l2_amplification=1.0,
    l1_amplification=1.0,
    registers_per_thread=32,
)

BUDGETS = {
    b.name: b for b in (
        WENO_BUDGET, VISCOUS_BUDGET, UPDATE_BUDGET, COMPUTEDT_BUDGET,
        FUSED_WENO_BUDGET,
        _dc_replace(FUSED_WENO_BUDGET, name="WENOxy"),
        FILLBOUNDARY_BUDGET, PARALLELCOPY_BUDGET, INTERP_BUDGET,
        AVERAGEDOWN_BUDGET, TAGGING_BUDGET, BCFILL_BUDGET,
    )
}


#: launch-name prefix -> budget, for the families of labeled launches the
#: execution backend emits (WENOx/WENOy/WENOz, FB_pack/FB_unpack, ...)
_PREFIX_BUDGETS = (
    ("WENO", WENO_BUDGET),
    ("FB_", FILLBOUNDARY_BUDGET),
    ("PC_", PARALLELCOPY_BUDGET),
    ("Interp", INTERP_BUDGET),
    ("Tag_", TAGGING_BUDGET),
    ("BC_", BCFILL_BUDGET),
)


def budget_for_kernel(name: str) -> KernelBudget:
    """Resolve a launch name to its cost budget — the one rule that prices
    a launch, a reduction included: the launch tables' one pricing view
    (:func:`repro.kernels.device.launch_totals`) prices every recorded
    launch through it.

    Exact matches win; otherwise the launch-family prefix decides
    (``WENOx`` -> WENO, ``FB_pack`` -> FillBoundary, ``Interp_weno`` ->
    Interp, ...).  Unknown kernels are priced like the bandwidth-bound
    Update saxpy, the most neutral assumption.
    """
    budget = BUDGETS.get(name)
    if budget is not None:
        return budget
    for prefix, b in _PREFIX_BUDGETS:
        if name.startswith(prefix):
            return b
    return UPDATE_BUDGET
