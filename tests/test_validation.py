"""Tests for state and semantics validation."""

import pytest

import repro
from repro.core.compiler_env_state import CompilerEnvState
from repro.core.validation import validate_state


@pytest.fixture()
def env():
    env = repro.make("llvm-v0", benchmark="cbench-v1/crc32", reward_space="IrInstructionCount")
    yield env
    env.close()


class TestStateValidation:
    def test_valid_state_passes(self, env):
        env.reset()
        env.multistep([env.action_space["mem2reg"], env.action_space["dce"]])
        result = validate_state(env, env.state)
        assert result.okay()
        assert result.reward_validated
        assert not result.reward_validation_failed

    def test_wrong_reward_is_detected(self, env):
        env.reset()
        env.step(env.action_space["mem2reg"])
        state = env.state
        tampered = CompilerEnvState(
            benchmark=state.benchmark,
            commandline=state.commandline,
            walltime=state.walltime,
            reward=(state.reward or 0) + 1000,
        )
        result = validate_state(env, tampered)
        assert not result.okay()
        assert result.reward_validation_failed

    def test_semantics_validation_runs_for_cbench(self, env):
        env.reset()
        env.multistep([env.action_space["sccp"], env.action_space["simplifycfg"]])
        result = env.validate()
        assert result.benchmark_semantics_validated
        assert not result.benchmark_semantics_validation_failed

    def test_differential_test_catches_a_miscompilation(self, env, monkeypatch):
        """The reference is the benchmark's own pristine program: a pass that
        changes what ``main`` returns in the session's copy is reported, and
        the reference it is compared against never saw that pass."""
        from repro.llvm.interpreter import run_module
        from repro.llvm.ir.values import Constant
        from repro.llvm.passes.registry import PASS_REGISTRY

        def miscompile(module):
            for instruction in module.function("main").instructions():
                if instruction.opcode == "ret" and instruction.operands:
                    instruction.set_operand(0, Constant(instruction.operands[0].type, 424242))
            return True

        monkeypatch.setitem(PASS_REGISTRY, "dce", miscompile)
        env.reset()
        env.step(env.action_space["dce"])
        result = env.validate()
        assert result.benchmark_semantics_validated
        assert result.benchmark_semantics_validation_failed
        assert "Differential test failed" in result.error_details
        assert result.errors[-1].data["actual_return"] == 424242
        assert run_module(env.benchmark.program).return_value != 424242

    def test_unparseable_commandline_is_replay_failure(self, env):
        state = CompilerEnvState(
            benchmark="benchmark://cbench-v1/crc32", commandline="-not-a-real-pass", reward=0.0
        )
        result = validate_state(env, state)
        assert result.actions_replay_failed
        assert not result.okay()

    def test_validation_result_string(self, env):
        env.reset()
        result = env.validate()
        assert "cbench" in str(result)


class TestNondeterminismDetection:
    def test_gvn_sink_excluded_from_action_space(self, env):
        # The paper removed -gvn-sink after validation caught its
        # nondeterministic output; it must not be a selectable action.
        assert "gvn-sink" not in env.action_space.names

    def test_gvn_sink_is_registered_for_study(self):
        from repro.llvm.passes.registry import PASS_REGISTRY

        assert "gvn-sink" in PASS_REGISTRY
