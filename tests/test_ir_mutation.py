"""The IR's mutation surface: use lists, name sets and cached CFG analyses stay
equal to what a scan of the function finds, passes write the IR through it and
nothing else does, and none of that moved a byte of any pass's output.

``python tests/test_ir_mutation.py --record`` rewrites the golden fixture from
whatever source tree is on ``PYTHONPATH``.
"""

import hashlib
import json
import re
import sys
import threading
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro

from repro.llvm.datasets.generators import generate_module
from repro.llvm.datasets.suites import make_llvm_datasets
from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import predecessors, stale_analyses
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.journal import Journal
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.printer import print_module
from repro.llvm.ir import verifier
from repro.llvm.ir.values import Value
from repro.llvm.passes.registry import (
    ACTION_SPACE_PASSES,
    PASS_REGISTRY,
    FunctionPass,
    StampingPass,
    run_pass,
)
from repro.llvm.passes.utils import make_unconditional
from repro.llvm.passes.validate import LINT_EXCLUDED_PASSES, journaled_state, validate_rollback

SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "llvm"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "pass_print_hashes.json"
PASSES = sorted(set(PASS_REGISTRY) - LINT_EXCLUDED_PASSES)
BENCHMARKS_PER_DATASET = 2  # What ``repro-compilergym lint`` sweeps by default.


def lint_benchmarks():
    for dataset in make_llvm_datasets():
        for taken, bench in enumerate(dataset.benchmarks()):
            if taken >= BENCHMARKS_PER_DATASET:
                break
            yield str(bench.uri), bench.program


LINT_URIS = [uri for uri, _ in lint_benchmarks()]


# -- the oracle ----------------------------------------------------------------


def collect_uses(function: Function) -> Dict[Value, List[Tuple[Instruction, int]]]:
    """Map each value to the ``(instruction, operand index)`` pairs that use it.

    This is ``passes.utils.collect_uses`` as it stood before use lists were
    maintained — a scan of the whole function — kept verbatim as the oracle.
    """
    uses: Dict[Value, List[Tuple[Instruction, int]]] = {}
    for block in function.blocks:
        for inst in block.instructions:
            for index, operand in enumerate(inst.operands):
                uses.setdefault(operand, []).append((inst, index))
    return uses


def assert_bookkeeping_matches_a_scan(module) -> None:
    """Use lists, name sets and cached analyses of every function equal what
    is recomputed from ``blocks``/``instructions``/``operands`` alone."""
    homes = {
        id(inst): function for function in module.functions.values() for inst in function.instructions()
    }
    for function in module.defined_functions():
        scanned = collect_uses(function)
        # The oracle's dict merges constants that compare equal; merge the
        # maintained lists the same way, one contribution per operand object.
        maintained: Dict[Value, List[Instruction]] = {}
        seen = set()
        local = [*function.args, *function.blocks, *function.instructions()]
        local_ids = set(map(id, local))
        for value in [*local, *(op for inst in function.instructions() for op in inst.operands)]:
            if id(value) in seen:
                continue
            seen.add(id(value))
            for user in value.uses:
                # No erased, detached or out-of-module instruction is a user.
                assert id(user) in homes, f"@{function.name}: {value!r} lists stray {user!r}"
            here = [user for user in value.uses if homes[id(user)] is function]
            if id(value) in local_ids:
                assert len(here) == len(value.uses), f"{value!r} is used outside @{function.name}"
            maintained.setdefault(value, []).extend(here)
        for value in {**scanned, **maintained}:
            expected = sorted(id(user) for user, _ in scanned.get(value, []))
            assert sorted(map(id, maintained.get(value, []))) == expected, (
                f"@{function.name}: use list of {value!r} disagrees with the scan"
            )
        value_names = {inst.name for block in function.blocks for inst in block if inst.name}
        value_names.update(arg.name for arg in function.args)
        assert function._value_names == value_names
        assert function._block_names == {block.name for block in function.blocks}
        assert stale_analyses(function) == []


# -- golden print hashes ---------------------------------------------------------


def print_hash(module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()[:16]


def pristine_and_promoted(program):
    promoted = program.clone()
    run_pass(promoted, "mem2reg")
    return (("pristine", program), ("mem2reg", promoted))


def record() -> dict:
    """``{"<uri>|<state>": {"input": hash, "<pass>": hash, ...}}``; a pass whose
    output prints like its input is left out."""
    golden = {}
    for uri, program in lint_benchmarks():
        for state, base in pristine_and_promoted(program):
            cell = golden[f"{uri}|{state}"] = {"input": print_hash(base)}
            for name in PASSES:
                clone = base.clone()
                run_pass(clone, name)
                if print_hash(clone) != cell["input"]:
                    cell[name] = print_hash(clone)
    return golden


class TestEveryPassOnTheLintDatasets:
    @pytest.mark.parametrize("uri", LINT_URIS)
    def test_output_is_byte_identical_and_bookkeeping_matches_a_scan(self, uri):
        """One sweep, two questions, for every registered pass on the benchmark
        pristine and after ``mem2reg``: does the module print as it did before
        passes went through the mutation surface, and do the maintained use
        lists, name sets and analyses equal a from-scratch scan afterwards?

        The fixture holds ``sha256(print_module)`` per cell, recorded at the
        parent commit (7da6f2d). That commit's ``natural_loops`` walked a *set*
        of blocks, so the order in which ``-loop-unroll`` drew fresh names
        varied from process to process in ~10 of the 56 cells; those were
        recorded with the walk pinned to function block order, which is the
        order ``natural_loops`` now always uses.
        """
        golden = json.loads(GOLDEN.read_text())
        program = make_llvm_datasets().benchmark(uri).program
        assert_bookkeeping_matches_a_scan(program)
        for state, base in pristine_and_promoted(program):
            cell = golden[f"{uri}|{state}"]
            assert print_hash(base) == cell["input"], f"{uri} {state}"
            for name in PASSES:
                clone = base.clone()
                run_pass(clone, name)
                assert print_hash(clone) == cell.get(name, cell["input"]), f"{uri} {state} -{name}"
                assert_bookkeeping_matches_a_scan(clone)
            assert_bookkeeping_matches_a_scan(base)  # Cloning it 180 times left it alone.

    def test_fixture_covers_the_sweep(self):
        golden = json.loads(GOLDEN.read_text())
        assert sorted(golden) == sorted(f"{uri}|{s}" for uri in LINT_URIS for s in ("mem2reg", "pristine"))
        assert all(set(cell) <= {"input", *PASSES} for cell in golden.values())


class TestPassSequences:
    # The passes that can change a module (the rest never fire).
    CHANGING = sorted(name for name in PASSES if isinstance(PASS_REGISTRY[name], StampingPass))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        before=st.lists(st.sampled_from(CHANGING), max_size=6),
        after=st.lists(st.sampled_from(CHANGING), max_size=6),
    )
    def test_bookkeeping_survives_any_sequence_and_a_fork_midway(
        self, check_clone, seed, before, after
    ):
        """After every pass of an arbitrary sequence the maintained state
        equals a scan; a ``Module.clone()`` taken mid-way (what ``fork()``
        does) has use lists of its own, in an order of its own, and still
        optimises to the same text."""
        module = generate_module(seed, size_scale=3)
        for name in before:
            run_pass(module, name)
            assert_bookkeeping_matches_a_scan(module)
        fork = module.clone()
        check_clone(module, fork)
        assert_bookkeeping_matches_a_scan(fork)
        for name in after:
            run_pass(module, name)
            run_pass(fork, name)
            assert_bookkeeping_matches_a_scan(module)
            assert_bookkeeping_matches_a_scan(fork)
            assert print_module(fork) == print_module(module)


def _journaled(module, name) -> None:
    """Run one pass under a journal and roll it back, as a search candidate does."""
    journal = Journal(module)
    try:
        run_pass(module, name)
    finally:
        journal.rollback()


class TestRollback:
    CHANGING = TestPassSequences.CHANGING

    @pytest.mark.parametrize("uri", LINT_URIS)
    @settings(max_examples=3, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        warm_up=st.lists(st.sampled_from(CHANGING), max_size=5),
        following=st.sampled_from(CHANGING),
    )
    def test_every_pass_rolls_back_to_a_module_that_optimises_like_an_untouched_one(
        self, uri, warm_up, following
    ):
        """Wherever a random warm-up leaves the benchmark, every registered
        pass in turn is run under a journal and rolled back: the module prints
        as before, ``version``, stamps, name counters, unprinted ``attrs`` and
        dict orders are what they were, and — after all of them, on the one
        module, as a donor lives through candidate after candidate — use
        lists, name sets and cached analyses equal a scan. Its use lists are
        in an order of their own by then; a random next pass must not care."""
        module = make_llvm_datasets().benchmark(uri).program.clone()
        for name in warm_up:
            run_pass(module, name)
        untouched = module.clone()
        before = journaled_state(module)
        for name in PASSES:
            _journaled(module, name)
            assert journaled_state(module) == before, f"-{name} shows after rollback"
        assert_bookkeeping_matches_a_scan(module)
        run_pass(module, following)
        run_pass(untouched, following)
        assert print_module(module) == print_module(untouched)
        assert_bookkeeping_matches_a_scan(module)

    def test_a_pass_that_raises_midway_is_rolled_back_too(self, monkeypatch):
        def crashing_dce(function):
            for inst in [i for block in function.blocks for i in block if not i.uses and i.has_result]:
                inst.erase()
                raise RuntimeError("crashed after the first erase")
            return False

        monkeypatch.setitem(PASS_REGISTRY, "dce", FunctionPass(crashing_dce))
        module = generate_module(3, size_scale=3)
        run_pass(module, "mem2reg")
        before = journaled_state(module)
        with pytest.raises(RuntimeError, match="first erase"):
            _journaled(module, "dce")
        assert journaled_state(module) == before
        assert_bookkeeping_matches_a_scan(module)

    def test_only_one_journal_at_a_time_on_a_thread(self):
        module = generate_module(3, size_scale=1)
        journal = Journal(module)
        try:
            with pytest.raises(RuntimeError, match="already open"):
                Journal(module)
        finally:
            journal.rollback()
        Journal(module).rollback()

    def test_a_journal_records_its_own_thread_only(self):
        """A daemon steps other sessions on other threads while a candidate's
        journal is open: their passes are neither recorded nor taken back."""
        mine, theirs = generate_module(3, size_scale=3), generate_module(4, size_scale=3)
        before = journaled_state(mine)
        journal = Journal(mine)
        try:
            run_pass(mine, "mem2reg")
            recorded = len(journal.undo)
            assert recorded

            def step_another_session():
                # No journal is open on this thread: it may open its own.
                run_pass(theirs, "mem2reg")
                _journaled(theirs, "instcombine")

            other = threading.Thread(target=step_another_session)
            other.start()
            other.join(timeout=60)
            assert not other.is_alive() and len(journal.undo) == recorded
            stepped = journaled_state(theirs)
        finally:
            journal.rollback()
        assert journaled_state(mine) == before
        assert journaled_state(theirs) == stepped != journaled_state(generate_module(4, size_scale=3))
        assert_bookkeeping_matches_a_scan(mine)
        assert_bookkeeping_matches_a_scan(theirs)

    def test_a_straggler_written_behind_the_surface_is_caught(self, monkeypatch):
        """``-tailcallelim`` as it stood before ``set_attr``: the mark it
        leaves prints nowhere, and survives the rollback."""

        def tail_call_elimination(function):
            changed = False
            for block in function.blocks:
                for inst, after in zip(block.instructions, block.instructions[1:]):
                    if inst.opcode == "call" and after.opcode == "ret" and not inst.attrs.get("tail"):
                        inst.attrs.update(tail=True)
                        changed = True
            return changed

        module = parse_module(
            "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}\n"
            "define i32 @main(i32 %a) {\nentry:\n  %r = call i32 @f(i32 %a)\n  ret i32 %r\n}\n"
        )
        assert validate_rollback(module, "tailcallelim") == []
        assert run_pass(module.clone(), "tailcallelim")
        monkeypatch.setitem(PASS_REGISTRY, "tailcallelim", FunctionPass(tail_call_elimination))
        (failure,) = validate_rollback(module, "tailcallelim")
        assert failure.kind == "rollback" and "differs after rollback" in failure.detail



class TestTheVerifyAction:
    """The ``-verify`` action checks the program. The bookkeeping audit is
    an oracle for the passes: it runs where a test or ``verify_ir`` asks."""

    def test_the_action_never_runs_the_bookkeeping_audit(self, monkeypatch):
        def audit(function, module):
            raise AssertionError("the -verify action ran the bookkeeping audit")

        monkeypatch.setattr(verifier, "_bookkeeping_errors", audit)
        module = generate_module(seed=3, size_scale=3)
        before = print_module(module)
        assert run_pass(module, "verify") is False
        assert print_module(module) == before
        with repro.make("llvm-v0", benchmark="cbench-v1/crc32", result_cache=False,
                        observation_space="IrInstructionCount") as env:
            env.reset()
            _, _, done, info = env.step(ACTION_SPACE_PASSES.index("verify"))
            assert not done and info["action_had_no_effect"]

    def test_a_use_list_corruption_is_still_caught_under_verify_ir(self, monkeypatch):
        def forget_a_use(function):
            for inst in function.instructions():
                for operand in inst.operands:
                    if isinstance(operand, Instruction):
                        operand.uses.remove(inst)
                        return False
            return False

        monkeypatch.setitem(PASS_REGISTRY, "dce", FunctionPass(forget_a_use))
        with repro.make("llvm-v0", benchmark="cbench-v1/crc32", result_cache=False,
                        observation_space="IrInstructionCount", verify_ir=True) as env:
            env.reset()
            _, _, done, info = env.step(ACTION_SPACE_PASSES.index("dce"))
            assert done
            assert "-dce produced invalid IR" in info["error_details"]
            assert "does not match the operand slots" in info["error_details"]


# -- the surface itself ---------------------------------------------------------

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


def _diamond():
    module = parse_module(DIAMOND)
    function = module.function("main")
    blocks = {block.name: block for block in function.blocks}
    values = {inst.name: inst for inst in function.instructions() if inst.name}
    return module, function, blocks, values


class TestMutationSurface:
    def test_make_unconditional_erases_the_old_terminator(self):
        """It used to overwrite the terminator's slot in ``block.instructions``:
        the old branch kept its ``parent`` and its operands — a phantom user
        of the condition and of both successors."""
        module, function, blocks, values = _diamond()
        old = blocks["entry"].terminator
        make_unconditional(blocks["entry"], blocks["then"])
        assert old.parent is None and old.operands == []
        for value in (values["cmp"], blocks["then"], blocks["else"], blocks["join"]):
            assert all(user is not old for user in value.uses)
        assert values["cmp"].uses == []
        new = blocks["entry"].terminator
        assert new.opcode == "br" and new.operands == [blocks["then"]] and new.parent is blocks["entry"]
        assert blocks["then"].uses.count(new) == 1 and new not in blocks["else"].uses
        assert_bookkeeping_matches_a_scan(module)

    def test_make_unconditional_drops_the_abandoned_phi_edge(self):
        module, function, blocks, values = _diamond()
        # %then now falls through to %else instead of %join: %p keeps one edge
        # and is folded into the value that came along it.
        make_unconditional(blocks["then"], blocks["else"])
        assert values["p"].parent is None and values["p"].operands == []
        assert values["z"].operands[0] is values["y"] and values["y"].uses == [values["z"]]
        assert values["x"].uses == []
        assert_bookkeeping_matches_a_scan(module)

    def test_set_operand_and_replace_all_uses_move_the_use(self):
        module, function, blocks, values = _diamond()
        a, b = function.args
        assert sorted(user.name for user in a.uses) == ["cmp", "x", "z"]
        values["z"].set_operand(1, b)
        assert sorted(user.name for user in a.uses) == ["cmp", "x"]
        assert sorted(user.name for user in b.uses) == ["cmp", "y", "z"]
        assert values["x"].replace_all_uses_with(a) == 1
        assert values["x"].uses == [] and values["p"].operands[0] is a
        assert_bookkeeping_matches_a_scan(module)

    def test_one_entry_per_operand_slot(self):
        module, function, blocks, values = _diamond()
        z, p = values["z"], values["p"]
        z.set_operand(1, p)
        assert p.uses == [z, z]
        assert p.replace_all_uses_with(function.args[0]) == 2
        assert z.operands == [function.args[0]] * 2 and p.uses == []
        assert_bookkeeping_matches_a_scan(module)

    def test_remove_keeps_the_uses_and_erase_drops_them(self):
        module, function, blocks, values = _diamond()
        z, p = values["z"], values["p"]
        blocks["join"].remove(z)
        assert z.parent is None and z in p.uses and "z" not in function._value_names
        blocks["join"].insert(1, z)
        assert "z" in function._value_names
        assert_bookkeeping_matches_a_scan(module)
        z.erase()
        assert z.parent is None and z.operands == [] and z not in p.uses
        assert "z" not in function._value_names

    def test_void_instructions_share_one_empty_use_list(self):
        module, function, blocks, values = _diamond()
        terminators = [block.terminator for block in function.blocks]
        assert all(t.uses == () and t.uses is terminators[0].uses for t in terminators)
        assert all(t.uses == () for block in module.clone().function("main").blocks for t in [block.terminator])

    def test_fresh_names_probe_the_maintained_sets(self):
        module, function, blocks, values = _diamond()
        function._next_value_id = function._next_block_id = 0
        function.add_block("bb0")
        blocks["join"].insert(1, Instruction("add", [values["p"], values["p"]], type=values["p"].type, name="v0"))
        assert function.new_value_name() == "v1" and function.new_block_name() == "bb1"
        # A detached block reserves neither its name nor its instructions'.
        limbo = BasicBlock("bb2")
        limbo.append(Instruction("add", [values["p"], values["p"]], type=values["p"].type, name="v2"))
        assert function.new_value_name() == "v2" and function.new_block_name() == "bb2"

    def test_cached_analyses_drop_when_the_cfg_changes_and_only_then(self):
        module, function, blocks, values = _diamond()
        preds = predecessors(function)
        assert predecessors(function) is preds
        values["z"].set_operand(1, values["p"])  # Not a terminator: the CFG stands.
        blocks["join"].insert(1, Instruction("add", [values["p"], values["p"]], type=values["p"].type, name="w"))
        assert predecessors(function) is preds
        blocks["entry"].terminator.replace_successor(blocks["else"], blocks["then"])
        after = predecessors(function)
        assert after is not preds and after[blocks["else"]] == [] and stale_analyses(function) == []
        function.add_block("island")
        assert predecessors(function) is not after
        # Mid-edit, between dropping a terminator and appending its successor:
        tail = predecessors(function)
        blocks["then"].terminator.erase()
        assert predecessors(function) is not tail and predecessors(function)[blocks["join"]] == [blocks["else"]]


class TestNothingElseWritesTheIR:
    WRITES = re.compile(
        r"\.operands\s*\[[^\]]*\]\s*(?:[-+*|&]?=)(?!=)"
        r"|\.operands\s*(?:[-+*|&]?=)(?!=)"
        r"|\.operands\.(?:append|extend|insert|pop|remove|clear|sort|reverse)\("
        r"|\.instructions\s*\[[^\]]*\]\s*(?:[-+*|&]?=)(?!=)"
        r"|\.instructions\s*(?:[-+*|&]?=)(?!=)"
        r"|\.instructions\.(?:append|extend|insert|pop|remove|clear|sort|reverse)\("
        # A function leaves a module through Module.remove_function, which
        # erases its body; dropping the dict entry leaves its uses behind.
        r"|del\s+\S+\.functions\[|\.functions\.pop\("
        # What an undo journal has to take back, it has to see.
        r"|\.attrs\s*\[[^\]]*\]\s*(?:[-+*|&]?=)(?!=)|\.attrs\.(?:pop|update|clear|setdefault)\("
        r"|(?<!\bself)\.name\s*=(?!=)"
        r"|del\s+\S+\.globals\[|\.globals\.pop\("
        r"|\.metadata\s*\[[^\]]*\]\s*(?:[-+*|&]?=)(?!=)|\.metadata\.(?:pop|update|clear|setdefault)\("
    )
    # The seeded miscompiles that must be rejected *because* they do this.
    ALLOWED = {
        ("passes/validate.py", '_named(module, "z").operands[1] = _named(module, "p")'),
        ("passes/validate.py", '_named(module, "y").name = "x"'),
        ("passes/validate.py", '_named(module, "c").attrs["callee"] = "thrice"'),
        ("passes/validate.py", 'del module.globals["g"]'),
    }

    def test_no_direct_write_outside_ir(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative.startswith("ir/"):
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if self.WRITES.search(code) and (relative, code.strip()) not in self.ALLOWED:
                    offenders.append(f"{relative}:{number}: {code.strip()}")
        assert offenders == [], "IR written behind the mutation surface:\n" + "\n".join(offenders)

    @pytest.mark.parametrize(
        "line",
        [
            "inst.operands[i] = value",
            "user.operands[index] = load",
            "inst.operands = [rhs, lhs]",
            "phi.operands += [value, block]",
            "inst.operands.append(x)",
            "self.operands.extend([value, block])",
            "block.instructions.insert(0, alloca)",
            "pred.instructions.pop()",
            "block.instructions[index] = branch",
            "block.instructions = []",
            "continuation.instructions.append(inst)",
            "del module.functions[name]",
            "module.functions.pop(name, None)",
            'inst.attrs["callee"] = canonical.name',
            'inst.attrs.pop("debug", None)',
            "inst.attrs.update(tail=True)",
            'clone.name = caller.new_value_name(f"inl{clone.name}")',
            "del module.globals[old_name]",
            "module.globals.pop(name)",
            'module.metadata["generator"] = "llvm-stress"',
            "module.metadata.clear()",
        ],
    )
    def test_the_scan_sees_what_it_is_for(self, line):
        assert self.WRITES.search(line)

    @pytest.mark.parametrize(
        "line",
        [
            "if inst.operands == [a, b]:",
            "lhs, rhs = inst.operands",
            "x = block.instructions[index]",
            "count = len(block.instructions)",
            "position = block.instructions.index(inst)",
            "instruction.operands == other.operands",
            'if inst.attrs.get("tail"):',
            'if inst.attrs["callee"] == function.name:',
            "if inst.name == name:",
            "self.name = name",
            "run.__name__ = f\"noop_{name}\"",
            "for name in list(module.globals):",
            "if module.metadata:",
        ],
    )
    def test_the_scan_leaves_reads_alone(self, line):
        assert not self.WRITES.search(line)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
