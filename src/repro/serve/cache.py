"""Cross-run immutable cache keyed by a canonical case-config hash.

Multiple runs of the same case configuration recompute the same
expensive immutables: the grid coordinates of every patch (complex
hyperbolic/trigonometric mappings) and the 27-component curvilinear
metrics arrays derived from them (Sec. III-C of the paper).  This cache
shares them across runs — and across the fleet's worker *processes* —
through a content-addressed store of ``.npz`` files under one directory:

    <root>/<kind>/<sha256[:24]>.npz

Keys are canonical: a JSON rendering of the identifying scalars (case
class and parameters, domain, level, region — or, for metrics, the raw
coordinate bytes themselves) is hashed with SHA-256, so two runs agree
on an entry if and only if they would compute identical arrays.  Writes
are atomic (temp file + ``os.replace``), so concurrent workers racing on
the same miss publish identical complete files and last-write-wins is
harmless.  Loads round-trip ``float64`` arrays bit-exactly, which is
what keeps a cache-hit trajectory bitwise identical to a cache-miss one.

Each :class:`CaseCache` instance counts hits and misses per kind; the
serve worker ships its counters back in ``result.json`` and the service
aggregates them into ``GET /stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

#: cache entry kinds, in the order the stats report them
CACHE_KINDS = ("coords", "metrics")

#: scalar types admitted into a canonical signature
_SCALARS = (bool, int, float, str)


def _signature_value(value):
    """A JSON-able rendering of one identifying attribute, or None."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (tuple, list)) and all(
            isinstance(v, _SCALARS) for v in value):
        return list(value)
    return None


def object_signature(obj) -> Dict[str, object]:
    """Canonical identifying scalars of a case/EOS object.

    Collects every scalar (or scalar-tuple) attribute from the instance
    and its class — case parameters like ``mach``, ``angle_deg``, or
    ``gamma`` are plain attributes, so any constructor argument that
    changes the produced arrays changes the signature.
    """
    sig: Dict[str, object] = {"__class__": type(obj).__qualname__}
    names = set(vars(type(obj))) | set(getattr(obj, "__dict__", {}))
    for name in sorted(names):
        if name.startswith("_"):
            continue
        try:
            rendered = _signature_value(getattr(obj, name))
        except Exception:
            continue
        if rendered is not None:
            sig[name] = rendered
    return sig


def case_config_hash(case, extra: Optional[dict] = None) -> str:
    """The canonical case-config hash (hex) keying this case's entries."""
    sig = object_signature(case)
    if extra:
        sig["__extra__"] = extra
    blob = json.dumps(sig, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CaseCache:
    """File-backed store of immutable per-case arrays with hit counters."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits: Dict[str, int] = {k: 0 for k in CACHE_KINDS}
        self.misses: Dict[str, int] = {k: 0 for k in CACHE_KINDS}
        #: torn/unreadable entries deleted from the store (per kind)
        self.evictions: Dict[str, int] = {k: 0 for k in CACHE_KINDS}

    # -- generic machinery -------------------------------------------------
    def _path(self, kind: str, key_hash: str) -> Path:
        return self.root / kind / f"{key_hash[:24]}.npz"

    @staticmethod
    def _hash_parts(*parts) -> str:
        h = hashlib.sha256()
        for part in parts:
            if isinstance(part, bytes):
                h.update(part)
            else:
                h.update(json.dumps(part, sort_keys=True,
                                    separators=(",", ":")).encode())
            h.update(b"\x00")
        return h.hexdigest()

    def get_or_compute(self, kind: str, key_hash: str,
                       compute: Callable[[], Dict[str, np.ndarray]],
                       ) -> Dict[str, np.ndarray]:
        """Load the entry, or compute and publish it atomically."""
        path = self._path(kind, key_hash)
        if path.exists():
            try:
                with np.load(path, allow_pickle=False) as data:
                    arrays = {name: data[name].copy() for name in data.files}
                self.hits[kind] = self.hits.get(kind, 0) + 1
                return arrays
            except (OSError, ValueError, zipfile.BadZipFile):
                # a torn or unreadable entry is *evicted*, not just
                # skipped: deleting it frees the disk it pins and lets
                # the recompute below republish a clean file (a skipped
                # entry would force this key to miss forever)
                self._evict(kind, path)
        arrays = compute()
        self.misses[kind] = self.misses.get(kind, 0) + 1
        self._store(path, arrays)
        return arrays

    def _evict(self, kind: str, path: Path) -> None:
        """Delete one corrupt entry; losing a concurrent race is fine
        (another worker already replaced or removed it)."""
        try:
            path.unlink()
        except OSError:
            pass
        self.evictions[kind] = self.evictions.get(kind, 0) + 1

    def _store(self, path: Path, arrays: Dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- counters ----------------------------------------------------------
    def counters(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"hits", "misses"[, "evictions"]}}`` per kind touched."""
        out: Dict[str, Dict[str, int]] = {}
        for kind in sorted(set(self.hits) | set(self.misses)
                           | set(self.evictions)):
            h, m = self.hits.get(kind, 0), self.misses.get(kind, 0)
            e = self.evictions.get(kind, 0)
            if h or m or e:
                out[kind] = {"hits": h, "misses": m}
                if e:
                    out[kind]["evictions"] = e
        return out

    def eviction_count(self) -> int:
        """Total corrupt entries evicted across kinds."""
        return sum(self.evictions.values())

    def hit_rate(self) -> Optional[float]:
        """Overall hit fraction across kinds (None before any lookup)."""
        h = sum(self.hits.values())
        m = sum(self.misses.values())
        return h / (h + m) if (h + m) else None

    # -- grid coordinates --------------------------------------------------
    def coordinates(self, case, geom, region) -> np.ndarray:
        """Cell-center coordinates of ``region``, shared across runs.

        Keyed by the case signature plus the level's domain extent and
        the region bounds — everything ``Case.coordinates`` reads.
        """
        key = self._hash_parts(
            "coords-v1", object_signature(case),
            {"domain_lo": list(geom.domain.lo), "domain_hi": list(geom.domain.hi),
             "lo": list(region.lo), "hi": list(region.hi)})
        arrays = self.get_or_compute(
            "coords", key,
            lambda: {"coords": case.coordinates(geom, region)})
        return arrays["coords"]

    # -- curvilinear grid metrics (the 27-component arrays) ----------------
    def curvilinear_metrics(self, coords: np.ndarray):
        """A :class:`CurvilinearMetrics` built from (or cached for) coords.

        Content-addressed on the raw coordinate bytes, so any change to
        the mapping, region, or resolution produces a different key.  All
        four derived arrays (first/second metric derivatives, Jacobian,
        and the ``J * grad(xi)`` components) are stored, so a hit rebuilds
        the object bit-for-bit without touching the stencil kernels.
        """
        from repro.numerics.metrics import CurvilinearMetrics

        coords = np.ascontiguousarray(coords)
        key = self._hash_parts("metrics-v1", list(coords.shape),
                               coords.tobytes())

        def compute() -> Dict[str, np.ndarray]:
            m = CurvilinearMetrics.from_coordinates(coords)
            return {"first": m.first, "second": m.second,
                    "J": m.jacobian(), "m": m._m}

        arrays = self.get_or_compute("metrics", key, compute)
        return CurvilinearMetrics(arrays["first"], arrays["second"],
                                  arrays["J"], arrays["m"])
