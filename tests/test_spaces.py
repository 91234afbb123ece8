"""Unit tests for the space hierarchy."""

import copy

import numpy as np
import pytest

from repro.core.spaces import (
    Box,
    Commandline,
    CommandlineFlag,
    DictSpace,
    Discrete,
    NamedDiscrete,
    Permutation,
    Reward,
    Scalar,
    SequenceSpace,
    TupleSpace,
)
from repro.core.spaces.reward import DefaultRewardFromObservation


class TestDiscrete:
    def test_sample_in_range(self):
        space = Discrete(5)
        space.seed(0)
        for _ in range(50):
            assert 0 <= space.sample() < 5

    def test_contains(self):
        space = Discrete(3)
        assert space.contains(0)
        assert space.contains(2)
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains("a")
        assert not space.contains(1.5)

    def test_bool_is_not_member(self):
        assert not Discrete(3).contains(True)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_equality_and_len(self):
        assert Discrete(4) == Discrete(4)
        assert Discrete(4) != Discrete(5)
        assert len(Discrete(7)) == 7

    def test_seeded_sampling_is_reproducible(self):
        a, b = Discrete(100), Discrete(100)
        a.seed(42)
        b.seed(42)
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]

    def test_the_generator_is_made_when_first_asked_for(self):
        space = Discrete(100)
        assert space._rng is None and copy.deepcopy(space)._rng is None
        assert space.sample() in space
        assert space.rng is space._rng is not None
        clone = copy.deepcopy(space)
        assert clone.rng is not space.rng
        assert [clone.sample() for _ in range(5)] == [space.sample() for _ in range(5)]


class TestNamedDiscrete:
    def test_names_and_index(self):
        space = NamedDiscrete(["a", "b", "c"])
        assert space.n == 3
        assert space["b"] == 1
        assert space.names == ["a", "b", "c"]

    def test_to_from_string(self):
        space = NamedDiscrete(["x", "y", "z"])
        assert space.to_string([0, 2, 1]) == "x z y"
        assert space.from_string("z y x") == [2, 1, 0]

    def test_to_string_single_value(self):
        assert NamedDiscrete(["p", "q"]).to_string(1) == "q"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            NamedDiscrete([])

    def test_equality_is_by_names(self):
        assert NamedDiscrete(["a", "b"]) == NamedDiscrete(["a", "b"])
        assert NamedDiscrete(["a", "b"]) != NamedDiscrete(["b", "a"])


class TestScalar:
    def test_contains_bounds(self):
        space = Scalar(min=0, max=10, dtype=int)
        assert space.contains(0)
        assert space.contains(10)
        assert not space.contains(11)
        assert not space.contains(-1)
        assert not space.contains(2.5)

    def test_unbounded(self):
        space = Scalar(min=None, max=None, dtype=float)
        assert space.contains(1e12)
        assert space.contains(-1e12)

    def test_sample_respects_bounds(self):
        space = Scalar(min=5, max=6, dtype=float)
        space.seed(1)
        for _ in range(20):
            assert 5 <= space.sample() <= 6

    def test_int_sampling(self):
        space = Scalar(min=0, max=3, dtype=int)
        space.seed(0)
        assert all(isinstance(space.sample(), int) for _ in range(10))

    def test_equality(self):
        assert Scalar(min=0, max=1, dtype=int) == Scalar(min=0, max=1, dtype=int)
        assert Scalar(min=0, max=1, dtype=int) != Scalar(min=0, max=2, dtype=int)


class TestBox:
    def test_shape_and_dtype(self):
        space = Box(low=0, high=10, shape=(5,), dtype=np.int64)
        assert space.shape == (5,)
        assert space.dtype == np.int64

    def test_contains(self):
        space = Box(low=0, high=1, shape=(3,), dtype=np.float64)
        assert space.contains([0.5, 0.5, 0.5])
        assert not space.contains([0.5, 0.5])
        assert not space.contains([2.0, 0.5, 0.5])

    def test_sample_within_bounds(self):
        space = Box(low=0, high=5, shape=(4,), dtype=np.int64)
        space.seed(3)
        sample = space.sample()
        assert sample.shape == (4,)
        assert (sample >= 0).all() and (sample <= 5).all()

    def test_mismatched_bounds_raise(self):
        with pytest.raises(ValueError):
            Box(low=np.zeros(3), high=np.ones(2), shape=(3,))


class TestSequenceSpace:
    def test_string_membership(self):
        space = SequenceSpace(size_range=(0, None), dtype=str)
        assert space.contains("hello")
        assert not space.contains(b"hello")

    def test_size_range(self):
        space = SequenceSpace(size_range=(2, 4), dtype=str)
        assert not space.contains("a")
        assert space.contains("abc")
        assert not space.contains("abcde")

    def test_scalar_range_elements(self):
        space = SequenceSpace(size_range=(0, None), dtype=int, scalar_range=Scalar(min=0, max=5, dtype=int))
        assert space.contains([0, 5, 3])
        assert not space.contains([0, 9])

    def test_sample_type(self):
        space = SequenceSpace(size_range=(1, 8), dtype=bytes)
        space.seed(0)
        assert isinstance(space.sample(), bytes)


class TestContainers:
    def test_dict_space(self):
        space = DictSpace({"a": Discrete(3), "b": Scalar(min=0, max=1, dtype=float)})
        space.seed(0)
        sample = space.sample()
        assert set(sample) == {"a", "b"}
        assert space.contains(sample)
        assert not space.contains({"a": 1})

    def test_tuple_space(self):
        space = TupleSpace([Discrete(2), Discrete(3)])
        space.seed(0)
        sample = space.sample()
        assert space.contains(sample)
        assert not space.contains((5, 0))
        assert len(space) == 2


class TestCommandline:
    def _space(self):
        return Commandline(
            [
                CommandlineFlag("dce", "-dce", "dead code elimination"),
                CommandlineFlag("gvn", "-gvn", "value numbering"),
                CommandlineFlag("licm", "-licm", "loop invariant code motion"),
            ],
            name="test",
        )

    def test_flags(self):
        space = self._space()
        assert space.n == 3
        assert space.flag(1) == "-gvn"
        assert space.description(0) == "dead code elimination"

    def test_commandline_round_trip(self):
        space = self._space()
        commandline = space.to_commandline([2, 0, 1])
        assert commandline == "-licm -dce -gvn"
        assert space.from_commandline(commandline) == [2, 0, 1]

    def test_unknown_flag_raises(self):
        with pytest.raises(LookupError):
            self._space().from_commandline("-unknown")


class TestPermutation:
    def test_sample_is_permutation(self):
        space = Permutation(6)
        space.seed(0)
        sample = space.sample()
        assert sorted(sample) == list(range(6))
        assert space.contains(sample)

    def test_contains_rejects_non_permutations(self):
        space = Permutation(3)
        assert not space.contains([0, 1, 1])
        assert not space.contains([0, 1])


class TestRewardSpaces:
    def test_default_reward_from_observation(self):
        reward = DefaultRewardFromObservation("IrInstructionCount")
        reward.reset("bench", None)
        assert reward.update([], [100], None) == 0.0
        assert reward.update([], [90], None) == 10.0
        assert reward.update([], [95], None) == -5.0

    def test_reward_on_error_negates_returns(self):
        reward = Reward(name="r", default_value=0, default_negates_returns=True)
        assert reward.reward_on_error(episode_reward=7.0) == -7.0

    def test_reward_range(self):
        reward = Reward(name="r", min=0, max=1)
        assert reward.range == (0, 1)
