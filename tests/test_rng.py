import numpy as np
import pytest

from resdyn.core import ValidationError
from resdyn.rng import seeded_rng


def test_seeds_that_agree_below_bit_32_draw_different_streams():
    for a, b in [(0, 2**32), (1, 2**32 + 1), (2**32 - 1, 2**64 - 1)]:
        assert not np.array_equal(seeded_rng(a, "t").random(4), seeded_rng(b, "t").random(4))


@pytest.mark.parametrize("seed", [-1, -(2**32), True, False, 1.5, 1.0, "1", None])
def test_seed_other_than_a_non_negative_int_rejected(seed):
    with pytest.raises(ValidationError, match=f"seed must be an int >= 0, got {seed!r}$"):
        seeded_rng(seed, "t")


def test_numpy_integer_seed_draws_the_int_stream():
    for seed in (np.int64(7), np.uint32(7), np.uint64(7)):
        assert np.array_equal(seeded_rng(seed, "t").random(4), seeded_rng(7, "t").random(4))


def test_pinned_draw_unchanged():
    # the stream of a seed below 2**32 is the one it drew when only the low
    # 32 bits were kept
    assert seeded_rng(2801, "pin").random(3).tolist() == [
        0.21743293602167546, 0.19305110166496953, 0.40164170653965814]
    assert seeded_rng(2801, "pin", 3).integers(0, 2**62) == 1445714975862071095
