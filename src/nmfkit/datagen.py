"""Seeded synthetic inputs: dense uniform matrices, sparse matrices, and the
five-source mixing scenario used by the source-separation demo, whose fixed
sizes are the ``BSS_*`` constants.

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
    "derive_seed",
    "generate_dense_uniform",
    "generate_sparse",
    "source_waveforms",
    "generate_bss",
]

# Most entries a float64 array can hold: its byte count must fit in intp.
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8


def derive_seed(*parts: int) -> int:
    """Collision-resistant integer seed derived from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _require_shape(n, m, seed) -> None:
    """Refuse bad counts, a bad seed and more entries than an array can hold."""
    linalg.require_count(n, "n", 1)
    linalg.require_count(m, "m", 1)
    linalg.require_count(seed, "seed", 0)
    if int(n) * int(m) > MAX_ARRAY_ENTRIES:
        raise ContractViolationError(
            f"{n} x {m} is more entries than a float64 array can hold"
        )


def generate_dense_uniform(n: int, m: int, lo: float, hi: float, seed: int) -> np.ndarray:
    """n x m matrix with i.i.d. uniform entries on [lo, hi), 0 <= lo < hi < inf.

    Columns are not normalized; the caller decides whether to do that.
    """
    _require_shape(n, m, seed)
    linalg.require_real(lo, "lo")
    linalg.require_real(hi, "hi")
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
    _require_shape(n, m, seed)
    linalg.require_real(sparsity, "sparsity")
    if not 0.0 <= sparsity < 1.0:
        raise ContractViolationError(f"sparsity must be in [0, 1), got {sparsity}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    threshold = float(np.quantile(x, sparsity))
    x -= threshold
    return np.maximum(x, 0.0, out=x)


# The source-separation experiment: BSS_DURATION_S seconds of the
# BSS_NUM_SOURCES rows of source_waveforms, mixed onto BSS_NUM_SENSORS sensors.
BSS_DURATION_S = 10.0
BSS_NUM_SOURCES = 5
BSS_NUM_SENSORS = 200
# The fastest content: the chirp's 6t Hz at t = BSS_DURATION_S.
BSS_MAX_HZ = 60.0
# Most entries BssScenario allows in its observed matrix (800 MB as float64),
# so that a huge sample rate is refused before anything is allocated.
MAX_OBSERVED_ENTRIES = 10**8


@dataclass(frozen=True)
class BssScenario:
    """Source-separation setup: the fixed waveforms of
    :func:`source_waveforms` over ``BSS_DURATION_S`` seconds, sampled at
    ``sample_rate_hz`` and mixed onto ``BSS_NUM_SENSORS`` sensors."""

    sample_rate_hz: float = 100.0
    noise_variance: float = 0.01
    seed: int = 0

    def __post_init__(self):
        linalg.require_real(self.sample_rate_hz, "sample_rate_hz")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ContractViolationError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz} Hz"
            )
        linalg.require_count(self.seed, "seed", 0)
        linalg.require_real(self.noise_variance, "noise_variance")
        if not 0 <= self.noise_variance < np.inf:
            raise ContractViolationError(
                f"noise_variance must be finite and nonnegative, got "
                f"{self.noise_variance}"
            )
        count = BSS_DURATION_S * self.sample_rate_hz
        if not (count < np.inf and round(count) >= 1 and abs(count - round(count)) <= 1e-9):
            raise ContractViolationError(
                f"duration * rate must be a positive integer sample count, got {count}"
            )
        if BSS_NUM_SENSORS * round(count) > MAX_OBSERVED_ENTRIES:
            raise ContractViolationError(
                f"{BSS_NUM_SENSORS} sensors x {count:g} samples exceed the "
                f"{MAX_OBSERVED_ENTRIES} entries allowed in the observed matrix"
            )

    @property
    def num_samples(self) -> int:
        return int(round(BSS_DURATION_S * self.sample_rate_hz))

    @property
    def aliasing(self) -> bool:
        """True when the sample rate is below twice the fastest content."""
        return self.sample_rate_hz < 2.0 * BSS_MAX_HZ


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
    mixing = linalg.normalize_columns(rng.random((BSS_NUM_SENSORS, BSS_NUM_SOURCES)))
    if scenario.noise_variance > 0.0:
        noise = rng.normal(0.0, np.sqrt(scenario.noise_variance), size=sources.shape)
        sources = np.maximum(0.0, sources + noise)
    observed = mixing @ sources
    return sources, mixing, observed
