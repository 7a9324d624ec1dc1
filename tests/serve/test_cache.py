"""Cross-run immutable cache: keys, hit/miss accounting, bit-exactness."""

import numpy as np
import pytest

from repro.cases.ramp import CompressionRamp
from repro.cases.shocktube import SodShockTube
from repro.numerics.metrics import CurvilinearMetrics
from repro.serve.cache import CaseCache, case_config_hash, object_signature


@pytest.fixture
def cache(tmp_path):
    return CaseCache(tmp_path / "cache")


def test_case_config_hash_stable_and_parameter_sensitive():
    a = case_config_hash(CompressionRamp(ncells=(32, 16), mach=3.0))
    b = case_config_hash(CompressionRamp(ncells=(32, 16), mach=3.0))
    c = case_config_hash(CompressionRamp(ncells=(32, 16), mach=3.5))
    d = case_config_hash(SodShockTube(ncells=32))
    assert a == b
    assert a != c  # a constructor parameter changes the key
    assert a != d  # a different case class changes the key


def test_object_signature_skips_private_and_arrays():
    class Thing:
        scale = 2.0

        def __init__(self):
            self.n = 4
            self._secret = 9
            self.arr = np.zeros(3)

    sig = object_signature(Thing())
    assert sig["n"] == 4 and sig["scale"] == 2.0
    assert "_secret" not in sig and "arr" not in sig
    assert sig["__class__"].endswith("Thing")


def test_get_or_compute_counts_hits_and_misses(cache):
    calls = []

    def compute():
        calls.append(1)
        return {"x": np.arange(5.0)}

    first = cache.get_or_compute("coords", "k" * 64, compute)
    again = cache.get_or_compute("coords", "k" * 64, compute)
    assert len(calls) == 1  # second lookup served from disk
    np.testing.assert_array_equal(first["x"], again["x"])
    assert cache.counters()["coords"] == {"hits": 1, "misses": 1}
    assert cache.hit_rate() == 0.5


def test_torn_entry_treated_as_miss(cache):
    key = "t" * 64
    cache.get_or_compute("metrics", key, lambda: {"w": np.ones(2)})
    path = cache._path("metrics", key)
    path.write_bytes(b"not a zip at all")
    out = cache.get_or_compute("metrics", key, lambda: {"w": np.ones(2)})
    np.testing.assert_array_equal(out["w"], np.ones(2))
    assert cache.misses["metrics"] == 2  # the torn entry did not count as a hit


def test_curvilinear_metrics_roundtrip_bitwise(cache):
    case = CompressionRamp(ncells=(24, 12))
    geom = case.geometry0()
    coords = case.coordinates(geom, geom.domain)
    fresh = CurvilinearMetrics.from_coordinates(coords)
    miss = cache.curvilinear_metrics(coords)   # computes + stores
    hit = cache.curvilinear_metrics(coords)    # loads from disk
    assert cache.counters()["metrics"] == {"hits": 1, "misses": 1}
    for a, b in ((miss.first, hit.first), (miss.second, hit.second)):
        assert a.tobytes() == b.tobytes()
    # and the cached object matches a from-scratch computation bit for bit
    assert hit.first.tobytes() == fresh.first.tobytes()
    assert hit.second.tobytes() == fresh.second.tobytes()
    assert hit.jacobian().tobytes() == fresh.jacobian().tobytes()


def test_coordinates_cached_per_region(cache):
    case = SodShockTube(ncells=64)
    geom = case.geometry0()
    first = cache.coordinates(case, geom, geom.domain)
    second = cache.coordinates(case, geom, geom.domain)
    assert first.tobytes() == second.tobytes()
    assert cache.counters()["coords"] == {"hits": 1, "misses": 1}
    direct = case.coordinates(geom, geom.domain)
    assert first.tobytes() == direct.tobytes()

