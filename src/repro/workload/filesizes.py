"""File-size distribution of the benchmark trace (§5.2.1, Fig 7a).

The paper sizes files from the distribution reported by Liu et al. [16]
(a five-month study of ~20,000 users): 90% of files are smaller than
4 MB, and the paper's generated trace has an average file size of 583 KB.

We reproduce both constraints with a two-component mixture:

* with probability 0.9, a lognormal "body" (μ=11.0, σ=1.0: median ≈ 60 KB,
  mean ≈ 99 KB) — the mass of small documents/photos;
* with probability 0.1, a "tail" of large files: 4 MB + Exponential(1 MB)
  (mean 5 MB).

Mixture mean ≈ 0.9·99 KB + 0.1·5 MB ≈ 583 KB and P(size < 4 MB) ≈ 0.90,
matching the paper's two published statistics.
"""

from __future__ import annotations

import random
from typing import Optional

#: Calibrated parameters (see module docstring).
BODY_MU = 11.0
BODY_SIGMA = 1.0
BODY_WEIGHT = 0.9
TAIL_OFFSET = 4 * 1024 * 1024
TAIL_MEAN_EXTRA = 1 * 1024 * 1024

#: Paper statistics the calibration targets.
PAPER_MEAN_SIZE = 583 * 1024
PAPER_P90_BOUND = 4 * 1024 * 1024


class FileSizeSampler:
    """Samples file sizes matching the paper's trace statistics."""

    def __init__(self, rng: Optional[random.Random] = None, min_size: int = 64):
        self._rng = rng if rng is not None else random.Random(7)
        self.min_size = min_size

    def sample(self) -> int:
        if self._rng.random() < BODY_WEIGHT:
            size = self._rng.lognormvariate(BODY_MU, BODY_SIGMA)
            # Keep the body below the 4 MB knee so the P90 target holds.
            size = min(size, TAIL_OFFSET - 1)
        else:
            size = TAIL_OFFSET + self._rng.expovariate(1.0 / TAIL_MEAN_EXTRA)
        return max(self.min_size, int(size))
