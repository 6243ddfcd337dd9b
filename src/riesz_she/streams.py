"""Counter-based random streams for reproducible parallel replicas.

Every (seed, replica) pair gets its own Philox key, and the replica draws
every step's normals from that one stream in turn, so a replica's draws are
identical no matter which worker executes it, in which block, or in what
order replicas complete.
"""

import numpy as np
# numpy loads numpy.random lazily: import it with the package, not in the
# first replica's step
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

_U64 = 2 ** 64


class _Key(ISeedSequence):
    """Seed sequence whose state is the Philox key itself. Philox(key=...)
    would first seed a SeedSequence from OS entropy, only to replace it."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def stream_for(seed, replica_id):
    """New Generator(Philox(key=[seed mod 2^64, replica_id])).

    replica_id must lie in [0, 2^64). The caller owns the generator: step k
    of a replica reads the k-th block of its normals.
    """
    if not (0 <= replica_id < _U64):
        raise ValueError("replica_id out of 64-bit range: %r" % (replica_id,))
    return Generator(Philox(_Key([seed % _U64, replica_id])))
