"""Deterministic 64-bit generator and per-run seed derivation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from evidfuse import SplitMix64, derive_run_seed, mix64
from evidfuse.engine import run_floats

# Known-answer vectors, frozen from an independent implementation of the
# published splitmix64 recurrence.
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED1234567_FIRST2 = (0x599ED017FB08FC85, 0x2C73F08458540FA5)
RUN_SEEDS_20061215 = (0x151E764C0E70A794, 0x4BC4CC4F33F9117E, 0xC8C43A395EF2A521)


def test_known_answer_seed_zero():
    gen = SplitMix64(0)
    assert tuple(gen.next_uint64() for _ in range(3)) == SEED0_FIRST3


def test_known_answer_seed_1234567():
    gen = SplitMix64(1234567)
    assert tuple(gen.next_uint64() for _ in range(2)) == SEED1234567_FIRST2


def test_outputs_are_64_bit():
    gen = SplitMix64(987654321)
    for _ in range(1000):
        value = gen.next_uint64()
        assert 0 <= value < (1 << 64)


def test_next_float_in_unit_interval():
    gen = SplitMix64(42)
    values = [gen.next_float() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_sequences_are_reproducible():
    a = SplitMix64(777)
    b = SplitMix64(777)
    assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]


def test_mix64_is_deterministic_and_avalanches():
    assert mix64(12345) == mix64(12345)
    assert mix64(12345) != mix64(12346)
    assert mix64(0) == 0


def test_derive_run_seed_known_answers():
    assert tuple(derive_run_seed(20061215, i) for i in range(3)) == RUN_SEEDS_20061215


def test_derive_run_seed_distinct_per_index():
    seeds = {derive_run_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_derive_run_seed_distinct_per_master():
    assert derive_run_seed(1, 0) != derive_run_seed(2, 0)


def test_negative_master_seed_is_masked():
    # negative Python ints map onto the 64-bit ring instead of failing
    assert derive_run_seed(-1, 0) == derive_run_seed((1 << 64) - 1, 0)


#: Master seeds at the edges of the 64-bit ring, negative and past it.
EDGE_SEEDS = [0, -1, 2**64 - 1, 2**64 + 5]


@settings(max_examples=150, deadline=None)
@given(
    master_seed=st.sampled_from(EDGE_SEEDS) | st.integers(-(2**80), 2**80),
    start=st.integers(0, 100) | st.integers(2**64 - 100, 2**64 - 41),
    runs=st.integers(1, 40),
    draws=st.integers(1, 20),
)
def test_run_floats_match_the_sequential_streams(master_seed, start, runs, draws):
    # start near 2**64 makes the run index itself wrap in the seed derivation
    expected = []
    for run_index in range(start, start + runs):
        rng = SplitMix64(derive_run_seed(master_seed, run_index))
        expected.append([rng.next_float() for _ in range(draws)])
    assert run_floats(master_seed, start, start + runs, draws).tolist() == expected
