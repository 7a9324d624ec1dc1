"""Host-vs-device parity for every AMR op ported onto the launch seam.

Under the device target each op runs its arithmetic inside recorded
launches; the arithmetic itself is the same NumPy, so the results must be
*bitwise* identical to the host target — only the accounting differs.
Each test also pins the launch names and kernel classes the op emits.
"""

import numpy as np
import pytest

from repro.amr.average_down import average_down
from repro.amr.boundary import fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import fill_coarse_patch
from repro.amr.geometry import Geometry
from repro.amr.interp_weno import WenoInterp
from repro.amr.interpolate import ConservativeLinearInterp, TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.amr.parallelcopy import parallel_copy
from repro.amr.tagging import tag_density_gradient
from repro.backend import DeviceBackend, use_backend
from repro.kernels.device import GpuDevice
from repro.mpi.comm import Communicator


def make_mf(ncomp=2, ngrow=2, periodic=(True, True), seed=0, nranks=4):
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 16, 8)
    comm = Communicator(nranks, ranks_per_node=2)
    dm = DistributionMapping.make(ba, nranks, "roundrobin")
    mf = MultiFab(ba, dm, ncomp, ngrow, comm)
    geom = Geometry(domain, (0.0, 0.0), (1.0, 1.0), periodic)
    rng = np.random.default_rng(seed)
    for _i, fab in mf:
        fab.whole()[...] = rng.standard_normal(fab.whole().shape)
    return mf, geom


def two_level(seed=0, ncomp=1, nranks=2):
    rng = np.random.default_rng(seed)
    comm = Communicator(nranks, ranks_per_node=1)
    dom_c = Box((0, 0), (15, 15))
    ba_c = BoxArray.from_domain(dom_c, 8, 8)
    crse = MultiFab(ba_c, DistributionMapping.make(ba_c, nranks), ncomp, 2,
                    comm)
    for _i, fab in crse:
        fab.whole()[...] = rng.random(fab.whole().shape)
    ba_f = BoxArray([Box((8, 8), (23, 23))])
    fine = MultiFab(ba_f, DistributionMapping.make(ba_f, nranks), ncomp, 2,
                    comm)
    for _i, fab in fine:
        fab.whole()[...] = rng.random(fab.whole().shape)
    geom_f = Geometry(dom_c.refine(2), (0.0, 0.0), (1.0, 1.0))
    return crse, fine, geom_f


def device_backend(log):
    """A one-device backend whose launches, in order, ``log`` (the
    ``launch_log`` fixture) records as ``be.log.of(be.devices[0])``."""
    be = DeviceBackend([GpuDevice()])
    be.log = log
    return be


def launches(backend):
    return backend.log.of(backend.devices[0])


def launch_names(backend):
    return [rec.name for rec in launches(backend)]


def launch_classes(backend):
    return {rec.kernel_class for rec in launches(backend)}


def snapshot(mf):
    return {i: fab.whole().copy() for i, fab in mf}


def assert_same(host_mf, dev_mf):
    for i, fab in host_mf:
        np.testing.assert_array_equal(fab.whole(), dev_mf.fab(i).whole())


class TestFillBoundaryParity:
    @pytest.mark.parametrize("periodic", [(False, False), (True, True)])
    def test_bitwise_and_launches(self, launch_log, periodic):
        h, geom = make_mf(periodic=periodic, seed=11)
        d, _ = make_mf(periodic=periodic, seed=11)
        fill_boundary_nowait(h, geom).finish()
        be = device_backend(launch_log)
        with use_backend(be):
            fill_boundary_nowait(d, geom).finish()
        assert_same(h, d)
        names = launch_names(be)
        assert "FB_pack" in names and "FB_unpack" in names
        assert launch_classes(be) == {"fillpatch"}

    def test_nowait_finish_parity(self, launch_log):
        h, geom = make_mf(seed=5)
        d, _ = make_mf(seed=5)
        fill_boundary_nowait(h, geom).finish()
        be = device_backend(launch_log)
        with use_backend(be):
            fill_boundary_nowait(d, geom).finish()
        assert_same(h, d)
        names = launch_names(be)
        # packs are launched at post time, unpacks at finish
        assert names.index("FB_pack") < names.index("FB_unpack")


class TestParallelCopyParity:
    @pytest.mark.parametrize("fill_ghosts", [False, True])
    def test_bitwise_and_launches(self, launch_log, fill_ghosts):
        src_h, _ = make_mf(seed=21)
        src_d, _ = make_mf(seed=21)
        # a different layout for the destination: one big box
        comm = Communicator(4, ranks_per_node=2)
        ba = BoxArray([Box((4, 4), (27, 27))])
        dm = DistributionMapping.make(ba, 4)
        dst_h = MultiFab(ba, dm, 2, 2, comm)
        dst_d = MultiFab(ba, dm, 2, 2, comm)
        parallel_copy(dst_h, src_h, fill_ghosts=fill_ghosts)
        be = device_backend(launch_log)
        with use_backend(be):
            parallel_copy(dst_d, src_d, fill_ghosts=fill_ghosts)
        assert_same(dst_h, dst_d)
        assert set(launch_names(be)) == {"PC_copy"}
        assert launch_classes(be) == {"fillpatch"}


class TestInterpParity:
    @pytest.mark.parametrize("interp,label", [
        (TrilinearInterp(), "Interp_trilinear"),
        (WenoInterp(), "Interp_weno"),
        (ConservativeLinearInterp(), "Interp_conslinear"),
    ])
    def test_fill_coarse_patch_bitwise(self, launch_log, interp, label):
        crse_h, fine_h, geom_f = two_level(seed=31)
        crse_d, fine_d, _ = two_level(seed=31)
        fill_coarse_patch(fine_h, crse_h, geom_f, 2, interp)
        be = device_backend(launch_log)
        with use_backend(be):
            fill_coarse_patch(fine_d, crse_d, geom_f, 2, interp)
        assert_same(fine_h, fine_d)
        names = launch_names(be)
        assert label in names
        assert "PC_gather" in names
        classes = launch_classes(be)
        assert "interp" in classes and "fillpatch" in classes


class TestAverageDownParity:
    def test_bitwise_and_launches(self, launch_log):
        crse_h, fine_h, _ = two_level(seed=41)
        crse_d, fine_d, _ = two_level(seed=41)
        average_down(fine_h, crse_h, 2)
        be = device_backend(launch_log)
        with use_backend(be):
            average_down(fine_d, crse_d, 2)
        assert_same(crse_h, crse_d)
        assert set(launch_names(be)) == {"AverageDown"}
        assert launch_classes(be) == {"averagedown"}


class TestTaggingParity:
    def test_density_gradient(self, launch_log):
        h, geom = make_mf(ncomp=4, seed=51)
        d, _ = make_mf(ncomp=4, seed=51)
        domain = geom.domain
        tags_h = tag_density_gradient(h, 0, 0.5, domain)
        be = device_backend(launch_log)
        with use_backend(be):
            tags_d = tag_density_gradient(d, 0, 0.5, domain)
        np.testing.assert_array_equal(tags_h, tags_d)
        assert set(launch_names(be)) == {"Tag_gradient"}
        assert launch_classes(be) == {"tagging"}


class TestDeviceOpsLeaveDataIdenticalToSeed:
    def test_host_default_records_nothing(self):
        """With no device backend active the AMR ops never touch a device:
        the module default is the host backend."""
        mf, geom = make_mf(seed=61)
        fill_boundary_nowait(mf, geom).finish()  # must not raise, nothing to record
