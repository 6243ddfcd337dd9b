"""Counter-based random streams for reproducible parallel replicas.

Every (seed, replica, step) triple gets its own Philox key, so the draw for
a given replica/step is identical no matter which worker executes it or in
what order replicas complete.
"""

import numpy as np

_U64 = np.uint64
_MASK32 = (1 << 32) - 1

# One Philox per process, re-keyed on each call: the Philox constructor
# first seeds a throwaway SeedSequence from OS entropy, which costs several
# times more than setting the state.
_BITGEN = np.random.Philox(key=np.zeros(2, dtype=_U64))
_GENERATOR = np.random.Generator(_BITGEN)
_FRESH = _BITGEN.state


def stream_for(seed, replica_id, step_index):
    """Generator keyed by (seed, replica_id, step_index).

    replica_id and step_index must each fit in 32 bits; they are packed
    into the second word of the 128-bit Philox key. Its draws equal those
    of Generator(Philox(key=...)). The generator is shared: it is valid
    until the next call.
    """
    if not (0 <= replica_id <= _MASK32):
        raise ValueError("replica_id out of 32-bit range: %r" % (replica_id,))
    if not (0 <= step_index <= _MASK32):
        raise ValueError("step_index out of 32-bit range: %r" % (step_index,))
    _FRESH["state"]["key"] = np.array(
        [seed & (2**64 - 1), (replica_id << 32) | step_index], dtype=_U64)
    _BITGEN.state = _FRESH
    return _GENERATOR
