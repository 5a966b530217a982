"""A canary for the numpy random streams the library draws from.

NumPy's NEP 19 keeps the bit generators' raw streams stable across
releases, but not the algorithms of ``Generator`` methods, so a numpy
upgrade that changed one would show as unexplained preset hash mismatches.
Each case makes the library's calls of one method, with its seeds, shapes
and call order, and pins the SHA-256 of the bits they return.  The calls
are made here on numpy directly, so the canary reads numpy alone and names
the method whose stream moved.
"""
import hashlib

import numpy as np
import pytest

from boundslab.lab.runner import repetition_seeds
from boundslab.pac_bayes import geometric_split


def _random():
    # tight_hedge's first repetition: its uniforms, one block of the
    # 2000-round game at K = 2, then one scalar draw (a one-row EXP3 act)
    _, rng = repetition_seeds(2, 0)
    return [rng.random(2000), rng.random()]


def _integers():
    # synthesize_uniform_log for offline_replay's first repetition, and for
    # a log of odd length.  Its integers calls draw 32-bit words, and PCG64
    # keeps the unused half of a 64-bit word between calls (``has_uint32``):
    # the random call between them draws whole 64-bit words, so after an
    # odd number of words the second integers call starts on that half
    values = []
    for T, seed in ((20000, repetition_seeds(7, 0)[0]), (25, 7)):
        rng = np.random.default_rng(seed)
        values.append(rng.integers(0, 4, size=T))
        values.append(rng.bit_generator.state["has_uint32"])
        values.append(rng.random(T))
        values.append(rng.integers(0, 2, size=(T, 10)))
    return values


def _uniform():
    # _synthetic_table for pacbayes_aggregate's first repetition: one stream
    # draws the m = 50 true means and the m x n losses, in n_grid order
    env_seed, _ = repetition_seeds(8, 0)
    rng = np.random.default_rng(env_seed)
    return [draw for n in (100, 200, 400, 800, 1600)
            for draw in (rng.uniform(0.2, 0.8, size=50), rng.random((50, n)))]


def _choice():
    # recursive_pb's validation draws at n = 1000, T = 4 over m = 20
    # hypotheses, one stream per stage from 2 on; the prior is a fixed
    # non-uniform one in place of the stage's posterior
    env_seed, _ = repetition_seeds(9, 0)
    stage_seeds = np.random.SeedSequence(env_seed).spawn(4)
    starts = np.cumsum([0] + geometric_split(1000, 4))
    p = np.arange(1, 21) / 210
    return [np.random.default_rng(stage_seeds[t - 1]).choice(
                20, size=1000 - int(starts[t - 1]), p=p)
            for t in range(2, 5)]


def _spawn():
    # repetition_seeds over tight_hedge's 20 repetitions (spawn, then the
    # env seed's generate_state), and the stage seeds recursive_pb spawns
    # from the first, with the four words a PCG64 takes from each
    values = []
    for r in range(20):
        children = np.random.SeedSequence(2, spawn_key=(r,)).spawn(2)
        values.append(children[0].generate_state(1))
        values.append(children[1].generate_state(4, np.uint64))
    env_seed = int(values[0][0])
    values += [seq.generate_state(4, np.uint64)
               for seq in np.random.SeedSequence(env_seed).spawn(4)]
    return values


CASES = {"random": _random, "integers": _integers, "uniform": _uniform,
         "choice": _choice, "spawn": _spawn}

# SHA-256 of ``_digest`` over each case's values, under numpy 2.4.6
STREAM_DIGESTS = {
    "choice": "43c25979d10cee9ea1b4dd0166fe30ffbe28e04d4ba6007a6fd6bbae986f35dd",
    "integers": "b4cf263ac52ed9809fc02d7a6b368c19da6440cbf5398050f4db045584e9d575",
    "random": "ca80bed37efa9894ed1ca8e2cb4d1b594bf4a2d7995bd727f952ccd794a83c20",
    "spawn": "346c87f545f50591e237847c6f1bbe2267dcabd5b39a36c7749fe183ce490d0f",
    "uniform": "65af9296b479d231981972da6b3e0481c5fde3c6dd2687061976e2ed3a873f6f",
}


def _digest(values) -> str:
    """One SHA-256 over the values, each array as its dtype kind, its shape
    and the little-endian bytes of its entries.  Those bytes are a double's
    bits, as ``float.hex`` spells them; hashing the hex strings of the
    uniform case's 155k doubles would take about 0.13 s."""
    sha = hashlib.sha256()
    for value in values:
        value = np.asarray(value)
        sha.update(repr((value.dtype.kind, value.shape)).encode())
        sha.update(value.astype(value.dtype.newbyteorder("<")).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("method", sorted(CASES))
def test_numpy_draws_the_pinned_stream(method):
    assert _digest(CASES[method]()) == STREAM_DIGESTS[method], (
        f"numpy {np.__version__}: Generator.{method} (or SeedSequence, for "
        f"'spawn') draws other values than the pinned stream")
