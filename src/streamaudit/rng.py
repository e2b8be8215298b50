"""Reproducible pseudo-random numbers.

The generator is SplitMix64 (Steele, Lea & Flood 2014), fixed by
specification rather than by platform default so that seeded runs produce
identical sequences on every platform and in every language that
implements the same three lines of 64-bit arithmetic:

    state_k  = seed + (k + 1) * 0x9E3779B97F4A7C15   (mod 2^64)
    output_k = mix(state_k)

where mix(z) is the usual xor-shift-multiply finalizer (`mix64`). Because
the state sequence is a plain counter, `uniforms` computes a whole stream
in a few numpy passes; the tests keep the sequential generator as its
bit-identity oracle.

Uniform doubles are formed from the top 53 bits: u = (output >> 11) * 2^-53,
giving values in [0, 1). So for p < 1, u < p exactly when
output < ceil(p * 2^53) << 11, since p * 2^53 is exact and an integer is
below a real exactly when it is below its ceiling; `bernoullis` draws so.
"""

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _outputs(seed: int, n: int):
    """The first n outputs for seed, and a scratch buffer like them."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed & _MASK)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):  # as in mix64
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z, t


def uniforms(seed: int, n: int) -> np.ndarray:
    """The first n uniforms of the SplitMix64 stream seeded with seed; the
    result reuses the scratch buffer."""
    z, t = _outputs(seed, n)
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=t.view(np.float64))


def bernoullis(seed: int, n: int, p: float) -> np.ndarray:
    """uniforms(seed, n) < p as integer compares, no uniform formed."""
    if p >= 1.0:
        return np.ones(n, dtype=bool)
    return _outputs(seed, n)[0] < np.uint64(int(np.ceil(p * 2.0**53)) << 11)


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic per-run seed from a master seed and integer indices.

    Folds each index into the running hash with the SplitMix64 finalizer:

        s = mix64(master)
        for i in indices:  s = mix64(s ^ mix64(i + GOLDEN))

    Distinct index tuples give independent-looking 64-bit seeds, so sweep
    cells can run in any order (or concurrently) without collisions.
    """
    s = mix64(master)
    for i in indices:
        s = mix64(s ^ mix64((i + _GOLDEN) & _MASK))
    return s
