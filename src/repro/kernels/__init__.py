"""The CRoCCo numerics kernels and the simulated device they can run on.

The paper's port proceeds Fortran -> C++ -> GPU (Sec. IV).  We reproduce
the *software structure* of that port:

- every kernel (WENOx, WENOy, WENOz, Viscous, Update, ComputeDt) is a
  method of one :class:`~repro.kernels.api.KernelSet` in one of two
  arithmetic orderings, ``fortran`` or ``cpp``: identical mathematics
  with different floating-point accumulation orders, reproducing the
  mechanism behind the paper's ~1e-7 L2-norm drift between languages;
- moving onto the GPU changes no arithmetic (the paper reports no
  accuracy change): the same kernels launch through an execution target
  (:mod:`repro.backend`), and an accounting target runs them on the
  simulated device (:mod:`repro.kernels.device`) — scratch is reserved in
  "global memory" before launch (never inside kernels), launches are
  recorded with flop/byte counts for the roofline model, and
  device-memory capacity is enforced, reproducing the 16 GB V100 limit
  that shaped the paper's problem sizes.
"""

from repro.kernels.device import DeviceMemoryError, GpuDevice
from repro.kernels.api import KernelSet, make_kernels

__all__ = ["GpuDevice", "DeviceMemoryError", "KernelSet", "make_kernels"]
