"""Tests for the kernel layer: two orderings x any execution target."""

import numpy as np
import pytest

from repro.backend import DeviceBackend, HostBackend
from repro.kernels.api import ORDERINGS, make_kernels
from repro.kernels.device import DeviceMemoryError, GpuDevice, LaunchRecord
from repro.numerics.eos import IdealGasEOS
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity

NG = 4
EOS = IdealGasEOS()
LAY = StateLayout(dim=2)


def smooth_state(n=24, ng=NG, seed=0):
    rng = np.random.default_rng(seed)
    ntot = n + 2 * ng
    x = ((np.arange(-ng, n + ng) % n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    vel = np.stack([0.3 + 0.1 * np.sin(2 * np.pi * yy),
                    -0.2 + 0.1 * np.cos(2 * np.pi * xx)])
    p = 1.0 + 0.1 * np.cos(2 * np.pi * xx)
    return EOS.conservative(LAY, rho, vel, p)


def on_device(ordering="cpp", device=None, **kw):
    """Kernels launching on a DeviceBackend over one simulated GPU."""
    dev = device if device is not None else GpuDevice()
    return make_kernels(ordering, LAY, EOS,
                        exec_backend=DeviceBackend([dev]), **kw), dev


def test_make_kernels_validation():
    with pytest.raises(ValueError):
        make_kernels("cuda", LAY, EOS)
    with pytest.raises(ValueError):
        make_kernels("gpu", LAY, EOS)  # a target, not an ordering


def test_kernels_default_to_host_execution():
    ks = make_kernels("cpp", LAY, EOS)
    assert isinstance(ks.exec_backend, HostBackend)
    assert not ks.exec_backend.devices


def test_rhs_shapes_all_orderings():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    for o in ORDERINGS:
        ks = make_kernels(o, LAY, EOS,
                          viscous=ViscousFlux(constant_viscosity(1e-3)))
        rhs = ks.rhs(u.copy(), met, NG)
        assert rhs.shape == (4, 24, 24)
        assert np.isfinite(rhs).all()


def test_fortran_cpp_drift_small_but_generally_nonzero():
    """Orderings agree to near machine precision but not bit-exactly."""
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rf = make_kernels("fortran", LAY, EOS).rhs(u.copy(), met, NG)
    rc = make_kernels("cpp", LAY, EOS).rhs(u.copy(), met, NG)
    diff = np.abs(rf - rc)
    scale = np.abs(rf).max()
    assert diff.max() < 1e-10 * max(scale, 1.0)  # tiny
    assert diff.max() > 0.0  # but real: different accumulation order


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_device_matches_host_exactly(ordering):
    """The paper reports no accuracy change moving the kernels to GPU."""
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rh = make_kernels(ordering, LAY, EOS).rhs(u.copy(), met, NG)
    rd = on_device(ordering)[0].rhs(u.copy(), met, NG)
    assert np.array_equal(rh, rd)


def test_device_launch_records():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    ks, dev = on_device(viscous=ViscousFlux(constant_viscosity(1e-3)))
    ks.rhs(u.copy(), met, NG)
    assert {rec.name: (rec.npoints, n) for rec, n in dev.table.items()} == {
        name: (24 * 24, 1) for name in ("WENOx", "WENOy", "Viscous")}


def test_launches_land_on_the_owning_ranks_device(launch_log):
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    devs = [GpuDevice(), GpuDevice()]
    ks = make_kernels("cpp", LAY, EOS, exec_backend=DeviceBackend(devs))
    ks.rhs(u.copy(), met, NG, rank=1)
    ks.max_rate(u, met, rank=1)
    assert not devs[0].table
    assert [r.name for r in launch_log.of(devs[1])] == ["WENOy", "WENOx",
                                                        "ComputeDt"]
    assert devs[1].table.total() == 3


def test_device_scratch_released_after_rhs():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    ks, dev = on_device()
    ks.rhs(u.copy(), met, NG)
    assert dev.bytes_in_use == 0
    # one WENO launch's scratch: ncons x the whole patch, float64
    assert dev.high_water == u.nbytes


def test_device_memory_limit_on_big_patch():
    ks, _ = on_device(device=GpuDevice(memory_bytes=10_000))
    u = smooth_state(n=32)
    met = CartesianMetrics((1.0 / 32, 1.0 / 32))
    with pytest.raises(DeviceMemoryError):
        ks.rhs(u, met, NG)


def test_update_kernel_all_orderings(launch_log):
    for o in ORDERINGS:
        ks, dev = on_device(o)
        u = np.ones((4, 8, 8))
        du = np.zeros_like(u)
        rhs = np.full_like(u, 3.0)
        ks.update(u, du, rhs, dt=0.1, stage=0)
        assert np.allclose(u, 1.0 + 0.3 / 3.0)
        assert launch_log.events[-1].name == "Update"


def test_max_rate_matches_across_orderings_and_targets(launch_log):
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rates = {o: make_kernels(o, LAY, EOS).max_rate(u, met) for o in ORDERINGS}
    assert rates["fortran"] == pytest.approx(rates["cpp"])
    ks, dev = on_device()
    assert ks.max_rate(u, met) == rates["cpp"]
    assert launch_log.events[-1].name == "ComputeDt"
    # a stage bound once takes the rate of its valid region, one launch
    stage, = ks.bind([(u, met, NG, 0)])
    valid = u[(Ellipsis,) + (slice(NG, -NG),) * LAY.dim]
    assert ks.max_rate(stage) == ks.max_rate(valid, met)
    assert launch_log.events[-2:] == [
        LaunchRecord("ComputeDt", valid[0].size, "reduction")] * 2


def test_nghost_accounts_for_operators():
    ks = make_kernels("cpp", LAY, EOS)
    assert ks.nghost == 4  # weno: 3 + 1
    ks2 = make_kernels("cpp", LAY, EOS,
                       viscous=ViscousFlux(constant_viscosity(1e-3)))
    assert ks2.nghost == 4  # viscous 4th order needs 4
