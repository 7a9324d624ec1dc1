"""Tests for the version matrix and L2 validation helpers."""

import numpy as np
import pytest

from repro.core.validation import l2_difference
from repro.core.versions import VERSIONS, get_version


def test_version_matrix_matches_paper():
    assert [(v.ordering, v.target, v.amr) for v in VERSIONS.values()] == [
        ("fortran", "host", False),  # 1.0
        ("cpp", "host", False),      # 1.1
        ("cpp", "host", True),       # 1.2
        ("cpp", "device", True),     # 2.0: the 1.2 kernels, moved to the GPU
        ("cpp", "device", True),     # 2.1
    ]
    assert get_version("2.0").interpolator == "curvilinear"
    assert get_version("2.1").interpolator == "trilinear"


def test_parallelcopy_flag():
    """Only the AMR versions with the custom interpolator do the global copy."""
    assert not get_version("1.1").uses_global_parallelcopy
    assert get_version("1.2").uses_global_parallelcopy
    assert get_version("2.0").uses_global_parallelcopy
    assert not get_version("2.1").uses_global_parallelcopy


def test_unknown_version():
    from repro.core.errors import ConfigError

    with pytest.raises(ConfigError, match="3.0"):
        get_version("3.0")


def test_gpu_flag_follows_the_default_target():
    assert not VERSIONS["1.2"].on_gpu
    assert VERSIONS["2.0"].on_gpu


def test_l2_difference():
    a = np.zeros(100)
    b = np.full(100, 3.0)
    assert l2_difference(a, b) == pytest.approx(3.0)
    assert l2_difference(a, a) == 0.0
    with pytest.raises(ValueError):
        l2_difference(np.zeros(3), np.zeros(4))


def test_error_norms_and_observed_order():
    from repro.cases.vortex import IsentropicVortex
    from repro.core.crocco import Crocco, CroccoConfig
    from repro.core.validation import error_norms, observed_order

    errs = []
    for n in (16, 32):
        case = IsentropicVortex(ncells=n)
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32))
        sim.initialize()
        while sim.time < 0.3:
            sim.step()
        norms = error_norms(sim)
        assert set(norms) == {"rho", "T", "u0", "u1"}
        for v in norms.values():
            assert v["L1"] <= v["L2"] <= v["Linf"]
        errs.append(norms["rho"]["L2"])
    orders = observed_order(errs)
    assert len(orders) == 1
    assert orders[0] > 2.0  # high-order scheme on smooth data

    with pytest.raises(ValueError):
        observed_order([1.0])
    with pytest.raises(ValueError):
        observed_order([1.0, -1.0])


def test_error_norms_requires_exact_solution():
    from repro.cases.dmr import DoubleMachReflection
    from repro.core.crocco import Crocco, CroccoConfig
    from repro.core.validation import error_norms

    case = DoubleMachReflection(ncells=(32, 8))
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32))
    sim.initialize()
    sim.step()  # exact_solution returns None after t > 0? it's defined at any t
    # DMR has no exact_solution override beyond the base's None
    with pytest.raises(ValueError):
        error_norms(sim)
