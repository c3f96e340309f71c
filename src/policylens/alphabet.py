"""The 95-symbol printable-ASCII alphabet and bitmask character sets.

Every language handled by this package is over the fixed alphabet of
printable ASCII (codes 32..126).  Character sets are represented as 95-bit
integers: bit ``i`` stands for ``chr(32 + i)``.  Set algebra is then plain
integer bit arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import AlphabetError

ALPHABET_LO = 32
ALPHABET_HI = 126
ALPHABET_SIZE = ALPHABET_HI - ALPHABET_LO + 1  # 95

ALPHABET = "".join(chr(c) for c in range(ALPHABET_LO, ALPHABET_HI + 1))
FULL_MASK = (1 << ALPHABET_SIZE) - 1


def char_bit(ch: str) -> int:
    """Bitmask for a single character; raises AlphabetError if out of range."""
    code = ord(ch)
    if code < ALPHABET_LO or code > ALPHABET_HI:
        raise AlphabetError(f"character {ch!r} (code {code}) outside printable ASCII 32-126")
    return 1 << (code - ALPHABET_LO)


def mask_of(chars: str) -> int:
    mask = 0
    for ch in chars:
        mask |= char_bit(ch)
    return mask


def in_alphabet(ch: str) -> bool:
    return ALPHABET_LO <= ord(ch) <= ALPHABET_HI


def check_string(s: str) -> str:
    """Validate every character of ``s``; returns ``s`` for chaining."""
    for ch in s:
        if not in_alphabet(ch):
            raise AlphabetError(f"character {ch!r} (code {ord(ch)}) outside printable ASCII 32-126")
    return s


@lru_cache(maxsize=4096)
def chars_of(mask: int) -> str:
    """The characters of a mask, in code order."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(chr(ALPHABET_LO + i))
        mask >>= 1
        i += 1
    return "".join(out)

