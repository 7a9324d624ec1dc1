"""Role-keyed scratch arrays, one cache per execution backend."""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np


class ScratchCache:
    """Role-keyed scratch-array allocator with hit counters.

    ``get(role, shape)`` returns an *uninitialized* array of that shape,
    a view of the one flat buffer kept per ``(role, dtype)``; callers own
    the full overwrite (the WENO sweep writes every element through
    ``out=`` ops before reading) and hold a role's array only until they
    ask for that role again.  A buffer is regrown when a request exceeds
    it, so the cache settles at the largest request per role — it does
    not grow with the number of box or batch shapes a run goes through.
    One cache lives per backend instance, so buffers are reused across
    launches, RK stages and steps — the allocation pattern the paper's
    port achieves by hoisting scratch allocation out of the kernels
    (Sec. IV-B).
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, role: str, shape: Tuple[int, ...],
            dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        key = (role, np.dtype(dtype).str)
        buf = self._store.get(key)
        if buf is None or buf.size < n:
            self.misses += 1
            buf = self._store[key] = np.empty(n, dtype=dtype)
        else:
            self.hits += 1
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._store.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"entries": len(self._store), "bytes": self.nbytes,
                "hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate}
