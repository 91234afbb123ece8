"""Tests for the static-analysis layer: dominators, dataflow, the semantic
verifier, the pass-validation harness, and the verify_ir env wiring; and
source scans of the service tier."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.llvm.analysis import (
    DominatorTree,
    dominance_frontiers,
    dom_tree_depths,
    def_use_chains,
    liveness,
    liveness_features,
    max_domtree_depth,
    reaching_definitions,
    reachingdefs_features,
    use_def_chains,
)
from repro.llvm.analysis.summaries import LIVENESS_DIMS, REACHINGDEFS_DIMS
from repro.llvm.datasets.generators import generate_module
from repro.llvm.ir.function import Function
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.types import I32
from repro.llvm.ir.verifier import verify_module
from repro.llvm.passes.registry import PASS_REGISTRY, FunctionPass, ModulePass, run_pass
from repro.llvm.passes.validate import (
    MISCOMPILE_MUTATIONS,
    count_over_stamped,
    lint_module,
    self_test_module,
    validate_pass,
    verifier_self_test,
)

DIAMOND = """
define i32 @main(i32 %a, i32 %b) {
entry:
  %cmp = icmp slt i32 %a, %b
  br i1 %cmp, label %then, label %else
then:
  %x = add i32 %a, 1
  br label %join
else:
  %y = mul i32 %b, 2
  br label %join
join:
  %p = phi i32 [ %x, %then ], [ %y, %else ]
  %z = add i32 %p, %a
  ret i32 %z
}
"""

# A loop with two back-edges into one header, plus an unreachable block that
# is itself a CFG predecessor of the header.
MULTI_BACKEDGE = """
define i32 @main(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i1, %latch1 ], [ %i2, %latch2 ], [ %d, %dead ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %odd = and i32 %i, 1
  %isodd = icmp eq i32 %odd, 1
  br i1 %isodd, label %latch1, label %latch2
latch1:
  %i1 = add i32 %i, 1
  br label %header
latch2:
  %i2 = add i32 %i, 2
  br label %header
dead:
  %d = add i32 %i, 99
  br label %header
exit:
  ret i32 %i
}
"""


def _blocks(function):
    return {block.name: block for block in function.blocks}


class TestDominatorTree:
    def test_diamond_idoms_and_depths(self):
        f = parse_module(DIAMOND).function("main")
        tree = DominatorTree(f)
        b = _blocks(f)
        assert tree.idom[b["entry"]] is None
        assert tree.idom[b["then"]] is b["entry"]
        assert tree.idom[b["else"]] is b["entry"]
        assert tree.idom[b["join"]] is b["entry"]
        assert tree.depth[b["entry"]] == 0
        assert tree.depth[b["join"]] == 1
        assert tree.dominates(b["entry"], b["join"])
        assert not tree.dominates(b["then"], b["join"])
        assert tree.dominates(b["join"], b["join"])
        assert not tree.strictly_dominates(b["join"], b["join"])

    def test_diamond_frontiers(self):
        f = parse_module(DIAMOND).function("main")
        frontiers = dominance_frontiers(f)
        b = _blocks(f)
        assert frontiers[b["then"]] == {b["join"]}
        assert frontiers[b["else"]] == {b["join"]}
        assert frontiers[b["entry"]] == set()

    def test_multi_backedge_loop(self):
        f = parse_module(MULTI_BACKEDGE).function("main")
        tree = DominatorTree(f)
        b = _blocks(f)
        assert tree.idom[b["header"]] is b["entry"]
        assert tree.idom[b["latch1"]] is b["body"]
        assert tree.idom[b["latch2"]] is b["body"]
        # The header dominates both latches through the body.
        assert tree.dominates(b["header"], b["latch1"])
        assert tree.dominates(b["header"], b["latch2"])
        # Header is in its own latches' frontier (it's a loop header).
        assert b["header"] in tree.frontiers()[b["latch1"]]

    def test_unreachable_blocks_excluded(self):
        f = parse_module(MULTI_BACKEDGE).function("main")
        tree = DominatorTree(f)
        b = _blocks(f)
        assert [x.name for x in tree.unreachable] == ["dead"]
        assert b["dead"] not in tree.idom
        assert not tree.dominates(b["entry"], b["dead"])
        assert not tree.dominates(b["dead"], b["header"])

    def test_single_block_function(self):
        f = parse_module("define i32 @main() {\nentry:\n  ret i32 0\n}").function("main")
        tree = DominatorTree(f)
        assert tree.root is f.entry
        assert tree.depth[f.entry] == 0
        assert tree.frontiers() == {f.entry: set()}
        assert dom_tree_depths(f) == {f.entry: 0}

    def test_declaration(self):
        tree = DominatorTree(Function("ext", return_type=I32))
        assert tree.root is None
        assert tree.idom == {}
        assert tree.unreachable == []

    def test_instruction_dominance_within_block(self):
        f = parse_module(DIAMOND).function("main")
        tree = DominatorTree(f)
        b = _blocks(f)
        phi, z = b["join"].instructions[0], b["join"].instructions[1]
        assert tree.instruction_dominates(phi, z)
        assert not tree.instruction_dominates(z, phi)
        x = b["then"].instructions[0]
        assert tree.value_reaches_end_of_block(x, b["then"])
        assert not tree.value_reaches_end_of_block(x, b["else"])


class TestDataflow:
    def test_liveness_edge_sensitive_phi_uses(self):
        f = parse_module(DIAMOND).function("main")
        b = _blocks(f)
        result = liveness(f)
        x = b["then"].instructions[0]
        y = b["else"].instructions[0]
        # %x is live out of then (used by the phi along then->join) but never
        # live out of else, and vice versa.
        assert x in result.out_of(b["then"])
        assert x not in result.out_of(b["else"])
        assert y in result.out_of(b["else"])
        assert y not in result.out_of(b["then"])
        # Phi results are defs: %p is not live into join.
        phi = b["join"].instructions[0]
        assert phi not in result.in_of(b["join"])

    def test_liveness_entry_contains_only_args(self):
        for seed in range(3):
            module = generate_module(seed=seed, size_scale=4)
            for f in module.functions.values():
                if f.is_declaration:
                    continue
                live_in = liveness(f).in_of(f.entry)
                assert live_in <= frozenset(f.args)

    def test_liveness_loop_carried_value(self):
        f = parse_module(MULTI_BACKEDGE).function("main")
        b = _blocks(f)
        result = liveness(f)
        phi = b["header"].instructions[0]
        i1 = b["latch1"].instructions[0]
        # The loop counter is live through the body...
        assert phi in result.in_of(b["body"])
        # ...but not across the back-edge: the header phi re-defines it, so
        # only the increment is live out of the latch (via the phi edge use).
        assert phi not in result.out_of(b["latch1"])
        assert i1 in result.out_of(b["latch1"])

    def test_reaching_definitions(self):
        f = parse_module(DIAMOND).function("main")
        b = _blocks(f)
        result = reaching_definitions(f)
        assert result.in_of(f.entry) == frozenset(f.args)
        x = b["then"].instructions[0]
        y = b["else"].instructions[0]
        assert x in result.in_of(b["join"]) and y in result.in_of(b["join"])
        assert x not in result.in_of(b["else"])

    def test_use_def_and_def_use_chains(self):
        f = parse_module(DIAMOND).function("main")
        b = _blocks(f)
        ud = use_def_chains(f)
        du = def_use_chains(f)
        phi, z = b["join"].instructions[0], b["join"].instructions[1]
        assert ud[(z, 0)] is phi
        assert (z, 0) in du[phi]
        # Block operands of the phi are not value uses.
        assert (phi, 1) not in ud and (phi, 3) not in ud

    def test_declaration_has_empty_solution(self):
        f = Function("ext", return_type=I32)
        assert liveness(f).in_of(f.entry) == frozenset()
        assert reaching_definitions(f).out_of(f.entry) == frozenset()
        assert use_def_chains(f) == {}


class TestSemanticVerifier:
    def test_clean_modules_verify(self):
        assert verify_module(self_test_module(), raise_on_error=False) == []
        assert verify_module(parse_module(MULTI_BACKEDGE), raise_on_error=False) == []
        for seed in range(3):
            assert verify_module(generate_module(seed=seed, size_scale=4), raise_on_error=False) == []

    @pytest.mark.parametrize("mutation", sorted(MISCOMPILE_MUTATIONS))
    def test_seeded_miscompiles_rejected(self, mutation):
        module = self_test_module()
        MISCOMPILE_MUTATIONS[mutation](module)
        assert verify_module(module, raise_on_error=False), (
            f"seeded mutation {mutation!r} was not rejected"
        )

    def test_self_test_passes(self):
        assert verifier_self_test() == []

    def test_structural_only_mode_skips_semantic_checks(self):
        module = self_test_module()
        MISCOMPILE_MUTATIONS["type-mismatched-operand"](module)
        assert verify_module(module, raise_on_error=False)
        assert verify_module(module, raise_on_error=False, semantic=False) == []

    def test_dominance_ignores_unreachable_uses(self):
        # %d in the unreachable block uses the header phi: fine, dominance is
        # vacuous in unreachable code.
        assert verify_module(parse_module(MULTI_BACKEDGE), raise_on_error=False) == []

    def test_branch_condition_type_checked(self):
        module = parse_module(DIAMOND)
        f = module.function("main")
        entry = _blocks(f)["entry"]
        entry.terminator.set_operand(0, f.args[0])  # i32 condition
        errors = verify_module(module, raise_on_error=False)
        assert any("branch condition" in e for e in errors)

    def test_return_type_checked(self):
        module = parse_module(DIAMOND)
        f = module.function("main")
        join = _blocks(f)["join"]
        join.terminator.set_operands([])
        errors = verify_module(module, raise_on_error=False)
        assert any("returns no value" in e for e in errors)

    def test_call_arity_checked(self):
        module = parse_module(
            "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n"
            "define i32 @main() {\nentry:\n  %r = call i32 @f(i32 1, i32 2)\n  ret i32 %r\n}"
        )
        errors = verify_module(module, raise_on_error=False)
        assert any("passes 2 argument(s), expected 1" in e for e in errors)


class TestValidationHarness:
    def test_validate_pass_clean(self):
        assert validate_pass(self_test_module(), "mem2reg") == []

    def test_validate_pass_catches_corruption(self, monkeypatch):
        def evil(module):
            MISCOMPILE_MUTATIONS["clobbered-phi-edge"](module)
            return True

        monkeypatch.setitem(PASS_REGISTRY, "instnamer", evil)
        failures = validate_pass(self_test_module(), "instnamer")
        assert failures and failures[0].kind == "verifier"

    def test_validate_pass_catches_behavior_change(self, monkeypatch):
        from repro.llvm.interpreter import run_module

        def evil(module):
            # Structurally valid but wrong: flip the add to a sub.
            for f in module.functions.values():
                for inst in f.instructions():
                    if inst.opcode == "add":
                        inst.opcode = "sub"
                        return True
            return False

        monkeypatch.setitem(PASS_REGISTRY, "instnamer", evil)
        module = parse_module(
            "define i32 @main() {\nentry:\n  %x = add i32 2, 3\n  ret i32 %x\n}"
        )
        reference = run_module(module.clone())
        failures = validate_pass(module, "instnamer", reference=reference)
        assert failures and failures[0].kind == "differential"

    TWO_FUNCTIONS = """
define i32 @helper(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}

define i32 @main(i32 %a) {
entry:
  %y = call i32 @helper(i32 %a)
  ret i32 %y
}
"""

    def test_validate_pass_catches_function_pass_that_mutates_another_function(
        self, monkeypatch
    ):
        """A function pass is stamped per function it reports on: one that
        reaches into a neighbour leaves the neighbour's memoised observations
        stale, whatever it reports about the function it was given."""
        visited = []

        def evil(function):
            visited.append(function)
            if len(visited) < 2:
                return False
            helper = visited[0]  # Reports on @main, rewrites @helper.
            next(helper.instructions()).opcode = "sub"
            return True

        monkeypatch.setitem(PASS_REGISTRY, "instnamer", FunctionPass(evil))
        failures = validate_pass(parse_module(self.TWO_FUNCTIONS), "instnamer")
        assert [failure.kind for failure in failures] == ["cache"]
        assert "@helper changed" in failures[0].detail

    def test_validate_pass_catches_module_pass_that_forgets_a_new_function(self, monkeypatch):
        def evil(module, touched):
            module.add_function(Function("fresh", return_type=I32))
            return True

        monkeypatch.setitem(PASS_REGISTRY, "instnamer", ModulePass(evil))
        failures = validate_pass(parse_module(self.TWO_FUNCTIONS), "instnamer")
        assert [failure.kind for failure in failures] == ["cache"]
        assert "@fresh is new" in failures[0].detail

    def test_over_stamping_is_counted_not_failed(self, monkeypatch):
        # Every function "changed", none did: wasted recomputes, nothing stale.
        monkeypatch.setitem(PASS_REGISTRY, "instnamer", FunctionPass(lambda function: True))
        module = parse_module(self.TWO_FUNCTIONS)
        assert validate_pass(module, "instnamer") == []
        assert count_over_stamped(module, "instnamer") == 2
        # A plain callable cannot say what it touched, so it stamps everything.
        monkeypatch.setitem(PASS_REGISTRY, "instnamer", lambda module: True)
        assert validate_pass(module, "instnamer") == []
        assert count_over_stamped(module, "instnamer") == 2
        assert count_over_stamped(module, "mem2reg") == 0

    def test_lint_module_all_passes(self):
        assert lint_module(self_test_module(), "self-test") == []

    def test_lint_module_reports_invalid_input(self):
        module = self_test_module()
        MISCOMPILE_MUTATIONS["duplicate-name"](module)
        failures = lint_module(module, "bad")
        assert len(failures) == 1 and failures[0].pass_name == "<input>"


class TestVerifyIrEnvWiring:
    def _evil(self, module):
        for f in module.functions.values():
            if f.blocks:
                insts = [i for b in f.blocks for i in b.instructions if i.has_result]
                if len(insts) >= 2:
                    insts[1].name = insts[0].name
                    return True
        return False

    def test_corrupting_pass_fails_step(self, monkeypatch):
        monkeypatch.setitem(PASS_REGISTRY, "instnamer", self._evil)
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort", verify_ir=True)
        try:
            env.reset()
            action = env.action_space.names.index("instnamer")
            _, _, done, info = env.step(action)
            assert done
            assert "produced invalid IR" in info["error_details"]
            # The failure ends the episode, not the service: reset and go on.
            env.reset()
            _, _, done, _ = env.step(env.action_space.names.index("mem2reg"))
            assert not done
        finally:
            env.close()

    def test_verification_off_by_default(self, monkeypatch):
        monkeypatch.setitem(PASS_REGISTRY, "instnamer", self._evil)
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort")
        try:
            assert env.verify_ir is False
            env.reset()
            _, _, done, info = env.step(env.action_space.names.index("instnamer"))
            assert not done
        finally:
            env.close()

    def test_env_var_enables_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort")
        try:
            assert env.verify_ir is True
            env.reset()
            value = env.service.handle_session_parameter(
                env._session_id, "llvm.get_verify_ir", ""
            )
            assert value == "1"
            # The start request is the only way in: no parameter turns it off.
            assert env.service.handle_session_parameter(
                env._session_id, "llvm.set_verify_ir", "0"
            ) is None
            assert env.service.handle_session_parameter(
                env._session_id, "llvm.get_verify_ir", ""
            ) == "1"
        finally:
            env.close()

    def test_a_reset_is_one_round_trip_and_the_session_stays_cacheable(self):
        with repro.make("llvm-v0", benchmark="cbench-v1/qsort", verify_ir=True) as env:
            for _ in range(2):
                env.reset()
                env.step(env.action_space.names.index("mem2reg"))
            calls = {name: stats.calls for name, stats in env.service.stats.items() if stats.calls}
            assert calls == {"get_spaces": 1, "start_session": 2, "step": 2}
            runtime = env.service.runtime
            entry = runtime.sessions[env._session_id]
            assert entry.pure and entry.verify_ir and entry.session.verify_ir
            # What it computes is stored; its own steps are not answered from the cache.
            stats = runtime.result_cache.stats()
            assert stats["stores"] > 0 and stats["hits"] == 0

    def test_fork_inherits_verification(self):
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort", verify_ir=True)
        fork = None
        try:
            env.reset()
            fork = env.fork()
            value = fork.service.handle_session_parameter(
                fork._session_id, "llvm.get_verify_ir", ""
            )
            assert value == "1"
        finally:
            if fork is not None:
                fork.close()
            env.close()

    def test_clean_episode_verifies(self):
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort", verify_ir=True)
        try:
            env.reset()
            for name in ("mem2reg", "instcombine", "simplifycfg", "dce"):
                _, _, done, info = env.step(env.action_space.names.index(name))
                assert not done, info
        finally:
            env.close()


class TestAnalysisObservationSpaces:
    SPACES = ["Liveness", "DomTreeDepth", "ReachingDefs"]

    def test_in_process_values(self):
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort")
        try:
            env.reset()
            live = env.observation["Liveness"]
            assert live.shape == (LIVENESS_DIMS,) and live.dtype == np.int64
            assert live[0] > 0  # TotalBlocks
            depth = env.observation["DomTreeDepth"]
            assert depth >= 1
            reach = env.observation["ReachingDefs"]
            assert reach.shape == (REACHINGDEFS_DIMS,) and reach[0] == live[0]
        finally:
            env.close()

    def test_features_track_module_state(self):
        env = repro.make("llvm-v0", benchmark="cbench-v1/qsort")
        try:
            before = env.reset(observation_space="Liveness")
            env.step(env.action_space.names.index("mem2reg"))
            after = env.observation["Liveness"]
            assert not np.array_equal(before, after)
        finally:
            env.close()

    def test_summaries_deterministic(self):
        module = generate_module(seed=3, size_scale=4)
        assert np.array_equal(liveness_features(module), liveness_features(module))
        assert np.array_equal(reachingdefs_features(module), reachingdefs_features(module))
        assert max_domtree_depth(module) == max_domtree_depth(module)

    def _observe(self, env):
        with env:
            env.reset()
            for action in (0, 11, 3):
                env.step(action)
            return {space: env.observation[space] for space in self.SPACES}

    def test_identical_in_every_deployment(self, deployment):
        """Acceptance: identical values in-process, over a daemon, and over a
        2-daemon gateway."""
        local = self._observe(repro.make("llvm-v0", benchmark="cbench-v1/qsort"))
        deployed = self._observe(deployment(benchmark="cbench-v1/qsort"))
        for space in self.SPACES:
            assert np.array_equal(local[space], deployed[space]), space


class TestLintCli:
    def test_lint_subcommand(self, capsys):
        from repro.cli.main import main

        exit_code = main(
            [
                "lint",
                "--dataset", "benchmark://cbench-v1",
                "--benchmarks-per-dataset", "1",
                "--passes", "mem2reg", "instcombine", "simplifycfg",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "verifier self-test: ok" in captured.out
        assert "0 failure(s)" in captured.out

    def test_lint_fails_on_bad_pass(self, capsys, monkeypatch):
        from repro.cli.main import main

        def evil(module):
            for f in module.functions.values():
                insts = [i for b in f.blocks for i in b.instructions if i.has_result]
                if len(insts) >= 2:
                    insts[1].name = insts[0].name
                    return True
            return False

        monkeypatch.setitem(PASS_REGISTRY, "instnamer", evil)
        exit_code = main(
            [
                "lint",
                "--dataset", "benchmark://cbench-v1",
                "--benchmarks-per-dataset", "1",
                "--passes", "instnamer",
                "--quiet",
            ]
        )
        assert exit_code == 1
        assert "FAIL" in capsys.readouterr().out


# -- source scans of the service tier -----------------------------------------

SERVICE = Path(repro.__file__).resolve().parent / "core" / "service"


def _calls_by_function(source: str, attr: str) -> list:
    """The function (``Class.method`` or ``function``) around each call of a
    method named ``attr`` in ``source``; ``<module>`` outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


class TestServiceSocketsPollNothing:
    """A socket with a Python-level timeout makes CPython ``poll()`` before
    every send and receive, and a selector costs a register and an
    unregister around every request served in place. The service tier
    watches with one epoll set and keeps deadlines in the kernel."""

    def test_no_module_imports_selectors(self):
        importers = []
        for path in sorted(SERVICE.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "selectors" for name in names):
                    importers.append(path.relative_to(SERVICE).as_posix())
        assert importers == []

    def test_settimeout_is_called_only_on_the_connect_path(self):
        callers = {
            (path.relative_to(SERVICE).as_posix(), function)
            for path in sorted(SERVICE.rglob("*.py"))
            for function in _calls_by_function(path.read_text(), "settimeout")
        }
        assert callers == {("transport.py", "_connect")}

    def test_the_scan_finds_calls_in_methods_and_at_module_level(self):
        source = (
            "sock.settimeout(1)\n"
            "class Conn:\n"
            "    def read(self):\n"
            "        return [self.sock.settimeout(None) for _ in ()]\n"
            "def _connect():\n"
            "    settimeout(2)\n"
        )
        assert _calls_by_function(source, "settimeout") == ["<module>", "Conn.read"]
