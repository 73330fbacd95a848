"""Seeded synthetic inputs: dense uniform matrices, sparse matrices, and the
five-source mixing scenario used by the source-separation demo.

Every generator is deterministic for a fixed seed and returns entrywise
nonnegative float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError

__all__ = [
    "BssScenario",
    "generate_dense_uniform",
    "generate_sparse",
    "source_waveforms",
    "generate_bss",
]


def generate_dense_uniform(n: int, m: int, lo: float, hi: float, seed: int) -> np.ndarray:
    """n x m matrix with i.i.d. uniform entries on [lo, hi), 0 <= lo < hi < inf.

    Columns are not normalized; the caller decides whether to do that.
    """
    linalg.require_count(n, "n", 1)
    linalg.require_count(m, "m", 1)
    linalg.require_count(seed, "seed", 0)
    if lo < 0:
        raise ContractViolationError(f"lo must be nonnegative, got {lo}")
    if not lo < hi < np.inf:
        raise ContractViolationError(f"need lo < hi < inf, got [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, m))


def generate_sparse(n: int, m: int, sparsity: float, seed: int) -> np.ndarray:
    """Nonnegative n x m matrix with roughly a ``sparsity`` fraction of zeros.

    Entries are drawn standard normal; everything below the empirical
    ``sparsity`` quantile becomes 0 and the rest is shifted down by the
    threshold, so the output is nonnegative and the achieved zero fraction
    tracks the target regardless of its value. At sparsity 0.5 this reduces
    to clipping the negatives of a centered sample.

    The shift and the clip work in place on the sample, so the peak memory
    is the sample plus ``np.quantile``'s copy of it: twice the output.
    """
    linalg.require_count(n, "n", 1)
    linalg.require_count(m, "m", 1)
    linalg.require_count(seed, "seed", 0)
    if not 0.0 <= sparsity < 1.0:
        raise ContractViolationError(f"sparsity must be in [0, 1), got {sparsity}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    threshold = float(np.quantile(x, sparsity))
    x -= threshold
    return np.maximum(x, 0.0, out=x)


# Most entries BssScenario allows in its num_sensors x num_samples observed
# matrix (800 MB as float64), so that a huge sample rate is refused before
# anything is allocated.
MAX_OBSERVED_ENTRIES = 10**8


@dataclass(frozen=True)
class BssScenario:
    """Source-separation setup: five fixed waveforms mixed onto many sensors."""

    duration_s: float = 10.0
    sample_rate_hz: float = 100.0
    num_sensors: int = 200
    num_sources: int = 5
    noise_variance: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.duration_s < np.inf and 0 < self.sample_rate_hz < np.inf):
            raise ContractViolationError(
                f"duration and sample rate must be finite and positive, got "
                f"{self.duration_s} s at {self.sample_rate_hz} Hz"
            )
        linalg.require_count(self.num_sensors, "num_sensors", 1)
        linalg.require_count(self.seed, "seed", 0)
        linalg.require_count(self.num_sources, "num_sources", 1)
        if self.num_sources != 5:
            raise ContractViolationError(
                f"the scenario defines exactly 5 sources, got {self.num_sources}"
            )
        if not 0 <= self.noise_variance < np.inf:
            raise ContractViolationError(
                f"noise_variance must be finite and nonnegative, got "
                f"{self.noise_variance}"
            )
        count = self.duration_s * self.sample_rate_hz
        if not (count < np.inf and round(count) >= 1 and abs(count - round(count)) <= 1e-9):
            raise ContractViolationError(
                f"duration * rate must be a positive integer sample count, got {count}"
            )
        if self.num_sensors * round(count) > MAX_OBSERVED_ENTRIES:
            raise ContractViolationError(
                f"{self.num_sensors} sensors x {count:g} samples exceed the "
                f"{MAX_OBSERVED_ENTRIES} entries allowed in the observed matrix"
            )

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def max_instantaneous_hz(self) -> float:
        # The chirp sweeps at 6t Hz and ends at 6 * duration; the fixed sine
        # tops out at 20 Hz.
        return max(20.0, 6.0 * self.duration_s)

    @property
    def aliasing(self) -> bool:
        """True when the sample rate is below twice the fastest content."""
        return self.sample_rate_hz < 2.0 * self.max_instantaneous_hz


def source_waveforms(t: np.ndarray) -> np.ndarray:
    """The five unclipped source signals evaluated at times ``t`` (seconds).

    Row 0: 1 Hz square wave, 50% duty.
    Row 1: 1 Hz rectangular wave, 25% duty.
    Row 2: 2 Hz sine.
    Row 3: 20 Hz sine.
    Row 4: linear chirp, instantaneous frequency 6t Hz (30 Hz at t = 5 s).

    The rectangular pulse sits in the square wave's off half-period; if the
    two pulse trains shared support, the clipped square wave would equal the
    rectangle plus a third pulse and the mixture would admit exact
    factorizations that do not match the sources.
    """
    t = np.asarray(t, dtype=np.float64)
    frac = np.mod(t, 1.0)
    square = np.where(frac < 0.5, 1.0, -1.0)
    rect = np.where((frac >= 0.5) & (frac < 0.75), 1.0, -1.0)
    sine2 = np.sin(2.0 * np.pi * 2.0 * t)
    sine20 = np.sin(2.0 * np.pi * 20.0 * t)
    chirp = np.sin(2.0 * np.pi * 3.0 * t * t)
    return np.vstack([square, rect, sine2, sine20, chirp])


def generate_bss(scenario: BssScenario):
    """Build (sources, mixing, observed) for the scenario.

    Sources are the five waveforms clipped at zero, with Gaussian noise of
    the configured variance added and the result clipped at zero again. The
    mixing matrix has uniform positive entries and unit-norm columns, drawn
    before the noise so both use the same seeded stream. The observed data
    is exactly ``mixing @ sources``.
    """
    m = scenario.num_samples
    t = np.arange(m) / scenario.sample_rate_hz
    sources = np.maximum(0.0, source_waveforms(t))
    rng = np.random.default_rng(scenario.seed)
    mixing = linalg.normalize_columns(
        rng.random((scenario.num_sensors, scenario.num_sources))
    )
    if scenario.noise_variance > 0.0:
        noise = rng.normal(0.0, np.sqrt(scenario.noise_variance), size=sources.shape)
        sources = np.maximum(0.0, sources + noise)
    observed = mixing @ sources
    return sources, mixing, observed
