"""Scalar SplitMix64: the reference the vectorized streams are tested against."""

from attnpool.rng import GOLDEN, MASK64, mix64


class SplitMix64:
    """Scalar SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"next_below requires n >= 1, got {n}")
        return self.next_u64() % n
