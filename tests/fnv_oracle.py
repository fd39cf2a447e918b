"""FNV-1a, 64 bits, one byte at a time: the oracle for ``game.fnv1a64``,
which steps only the state's low byte per input byte and sums the rest as
one dot product over powers of the prime.  It shares no table or arithmetic
with the library, so a property test can require equal hashes."""

OFFSET = 0xCBF29CE484222325
PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = OFFSET
    for b in data:
        h ^= b
        h = (h * PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
