"""The seeded double stream every sampled verdict draws from.

`Stream(entropy)` reproduces `numpy.random.default_rng(entropy)` bit for
bit, for a list of non-negative ints and the two methods symred uses,
without importing `numpy.random`: numpy's SeedSequence entropy mixing
(pool of 4 words) feeds PCG64 (O'Neill, HMC-CS-2014-0905), whose
XSL-RR 128/64 output becomes a double as (x >> 11) * 2**-53.
"""

from __future__ import annotations

import functools
import operator

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashes(n: int, h: int = 0x43B0D7E5, mult: int = 0x931E8875):
    # (xor, multiply) constants of the first n hashes; the defaults are
    # hashmix's, and generate_state's own pair gives its 8 word hashes
    out = []
    for _ in range(n):
        nxt = h * mult & _M32
        out.append((h, nxt))
        h = nxt
    return tuple(out)


_FIRST = _hashes(4)
_STATE = _hashes(8, 0x8B51F9DD, 0x58F38DED)


@functools.lru_cache(maxsize=8)
def _schedule(extra: int) -> tuple[tuple[int, int, int, int], ...]:
    """mix_entropy's mixes after the first four hashes, in order, as
    (src, dst, xor, multiply): cell dst = mix(cell dst, hashmix(cell
    src)), cells 0-3 the pool and 4.. the words past the fourth."""
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    pairs += [(4 + j, dst) for j in range(extra) for dst in range(4)]
    return tuple(p + h for p, h in zip(pairs, _hashes(4 + len(pairs))[4:]))


def _words(entropy) -> list[int]:
    """The ints as 32-bit words, low word first, as SeedSequence reads them."""
    words = []
    for n in entropy:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)
    return words


def _pool(words: list[int]) -> list[int]:
    """SeedSequence.mix_entropy into a pool of 4 words."""
    cells = []
    for i, (xor, mult) in enumerate(_FIRST):
        h = ((words[i] if i < len(words) else 0) ^ xor) * mult & _M32
        cells.append(h ^ h >> 16)
    cells += words[4:]
    for src, dst, xor, mult in _schedule(len(cells) - 4):
        h = (cells[src] ^ xor) * mult & _M32
        r = (0xCA01F9DD * cells[dst] - 0x4973F715 * (h ^ h >> 16)) & _M32
        cells[dst] = r ^ r >> 16
    return cells[:4]


class Stream:
    """The doubles of `numpy.random.default_rng(entropy)`, in order."""

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy):
        pool = _pool(_words(entropy))
        s = []
        for i, (xor, mult) in enumerate(_STATE):
            v = (pool[i & 3] ^ xor) * mult & _M32
            s.append(v ^ v >> 16)
        # generate_state(4, uint64) -> u64 words (s0|s1<<32, ...); PCG64
        # reads the first two as (high, low) of the state, the last two
        # as the stream; then step, add, step.
        u = [s[k] | s[k + 1] << 32 for k in range(0, 8, 2)]
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (u[0] << 64 | u[1])) * _PCG_MULT
                       + self._inc) & _M128

    def _double(self) -> float:
        state = self._state = self._state * _PCG_MULT + self._inc & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return (x >> 11) * 2.0 ** -53

    def random(self, n: int) -> list[float]:
        """n unit doubles in [0, 1), as Generator.random(n)."""
        return [self._double() for _ in range(n)]

    def uniform(self, lo: float, hi: float) -> float:
        """One double in [lo, hi), as Generator.uniform(lo, hi)."""
        return lo + (hi - lo) * self._double()
