"""Pass-validation harness: vet every registered pass against the verifier.

Two layers of defense against miscompiling passes, mirroring how CompilerGym
leans on LLVM's ``-verify`` machinery and differential testing:

1. **Verify-after-each-pass**: run a pass on a benchmark's module, then run the
   semantic verifier (SSA dominance, phi coherence, operand typing). Any error
   is a pass bug — the input modules are verified first.
2. **Differential check**: for benchmarks the reference interpreter can run,
   compare the program's output before and after the pass. A pass that keeps
   the IR well-formed but changes behavior is caught here.

The harness also carries eight *seeded miscompile mutations* — hand-written IR
corruptions of the kinds optimizer bugs actually produce, five made through
the IR's mutation surface and three behind its back (an operand slot, an
``attrs`` entry, a global's dict entry) — and a self-test
that asserts the verifier rejects each one. The self-test runs first in
``repro-compilergym lint`` so that a regressed verifier cannot silently
green-light the pass sweep.

3. **Rollback audit**: every pass is also run under an undo journal
   (:mod:`repro.llvm.ir.journal`) and rolled back; anything that shows
   afterwards was written behind the mutation surface, and would corrupt the
   session a search candidate borrows (see :func:`validate_rollback`).
"""

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.llvm.interpreter import (
    ExecutionError,
    ExecutionResult,
    OpaqueFunctionError,
    run_module,
)
from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import natural_loops
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.journal import Journal
from repro.llvm.ir.module import Module
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.printer import print_function, print_module
from repro.llvm.ir.types import I64
from repro.llvm.ir.values import Constant
from repro.llvm.ir.verifier import verify_module
from repro.llvm.passes.registry import (
    O3_PIPELINE,
    OZ_PIPELINE,
    PASS_REGISTRY,
    run_pass,
)

# Passes excluded from linting: gvn-sink is the registry's deliberately
# nondeterministic pass (kept out of the action space for the same reason).
LINT_EXCLUDED_PASSES = frozenset({"gvn-sink"})


# -- seeded miscompile mutations ----------------------------------------------

# A small diamond CFG with a phi, a global and a call — enough surface for
# every mutation kind.
_SELF_TEST_IR = """
@g = global i32 7

define i32 @twice(i32 %v) {
entry:
  %w = add i32 %v, %v
  ret i32 %w
}

define i32 @main(i32 %a, i32 %b) {
entry:
  %cmp = icmp slt i32 %a, %b
  br i1 %cmp, label %then, label %else
then:
  %x = add i32 %a, 1
  br label %join
else:
  %l = load i32, ptr @g
  %c = call i32 @twice(i32 %l)
  %y = mul i32 %b, %c
  br label %join
join:
  %p = phi i32 [ %x, %then ], [ %y, %else ]
  %z = add i32 %p, %a
  ret i32 %z
}
"""


def self_test_module() -> Module:
    """A fresh, verifier-clean module that every seeded mutation applies to."""
    return parse_module(_SELF_TEST_IR)


def _main_blocks(module: Module) -> Dict[str, BasicBlock]:
    return {block.name: block for block in module.function("main").blocks}


def _named(module: Module, name: str) -> Instruction:
    for inst in module.function("main").instructions():
        if inst.name == name:
            return inst
    raise ValueError(f"self-test module has no %{name}")


def _clobber_phi_edge(module: Module) -> None:
    """Retarget a phi's incoming edge at a block that is not a predecessor."""
    phi = _named(module, "p")
    phi.set_operand(1, _main_blocks(module)["entry"])


def _hoist_use_before_def(module: Module) -> None:
    """Hoist a use above its definition (an illegal LICM-style hoist)."""
    blocks = _main_blocks(module)
    use = _named(module, "z")  # Uses %p, defined in join.
    blocks["join"].remove(use)
    blocks["entry"].insert(0, use)


def _mismatch_operand_type(module: Module) -> None:
    """Swap a binary operand for one of a different type."""
    _named(module, "x").set_operand(1, Constant(I64, 1))


def _dangle_block_ref(module: Module) -> None:
    """Point a branch at a block that is not part of the function."""
    limbo = BasicBlock("limbo")
    _main_blocks(module)["entry"].terminator.set_operand(1, limbo)


def _duplicate_name(module: Module) -> None:
    """Give two instructions the same result name."""
    _named(module, "y").name = "x"


def _write_operand_behind_the_api(module: Module) -> None:
    """Assign an operand slot directly. ``%z = add %p, %p`` is well-typed and
    dominated; only the use lists (``%a`` still lists ``%z``, ``%p`` lists it
    once for two slots) give it away."""
    _named(module, "z").operands[1] = _named(module, "p")


def _write_attr_behind_the_api(module: Module) -> None:
    """Assign an ``attrs`` entry directly (``-mergefunc`` redirecting a call,
    without ``set_attr``) — here to a function the module does not have."""
    _named(module, "c").attrs["callee"] = "thrice"


def _delete_global_behind_the_api(module: Module) -> None:
    """Drop a global's dict entry directly (``-globaldce``, without
    ``remove_global``) while a load still reads it."""
    del module.globals["g"]


MISCOMPILE_MUTATIONS: Dict[str, Callable[[Module], None]] = {
    "clobbered-phi-edge": _clobber_phi_edge,
    "use-before-def-hoist": _hoist_use_before_def,
    "type-mismatched-operand": _mismatch_operand_type,
    "dangling-block-ref": _dangle_block_ref,
    "duplicate-name": _duplicate_name,
    "operand-written-behind-api": _write_operand_behind_the_api,
    "attr-written-behind-api": _write_attr_behind_the_api,
    "global-deleted-behind-api": _delete_global_behind_the_api,
}


def verifier_self_test() -> List[str]:
    """Assert the verifier accepts the clean module and rejects each mutation.

    Returns a list of failure descriptions (empty when the verifier is sound).
    """
    failures: List[str] = []
    baseline = verify_module(self_test_module(), raise_on_error=False)
    if baseline:
        failures.append(f"self-test module does not verify clean: {baseline[:2]}")
    for name, mutate in MISCOMPILE_MUTATIONS.items():
        module = self_test_module()
        mutate(module)
        if not verify_module(module, raise_on_error=False):
            failures.append(f"seeded mutation {name!r} was NOT rejected by the verifier")
    return failures


# -- per-pass validation -------------------------------------------------------


class ValidationFailure(NamedTuple):
    """One pass-validation failure on one benchmark."""

    benchmark: str
    pass_name: str
    kind: str  # "crash" | "verifier" | "differential" | "cache" | "rollback"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.benchmark} × {self.pass_name}: {self.detail}"


def _reference_output(module: Module) -> Optional[ExecutionResult]:
    """The program's behavior under the reference interpreter, if runnable."""
    try:
        return run_module(module.clone())
    except (ExecutionError, OpaqueFunctionError, KeyError):
        return None


def validate_pass(
    module: Module,
    pass_name: str,
    benchmark: str = "<module>",
    reference: Optional[ExecutionResult] = None,
) -> List[ValidationFailure]:
    """Run one pass over a clone of ``module`` and check it did no harm.

    ``reference`` is the interpreter's output for the unoptimized module; pass
    ``None`` to skip the differential check (e.g. for non-runnable IR).

    Beyond the verifier and differential checks, what the pass told the pass
    manager is audited against the printed IR, because the session's
    observation caches believe it. The whole-module cache keys on the module
    version, which only bumps when a pass reports a change — a pass that
    mutates IR while reporting ``changed=False`` would silently serve stale
    observations. The per-function cache keys on each function's stamp, so a
    function whose text changed (or which is new) must carry a stamp above the
    pre-pass version. The reverse — a stamp that moved over unchanged text —
    only costs a recompute and is no failure; :func:`count_over_stamped`
    counts those.
    """
    failures: List[ValidationFailure] = []
    clone = module.clone()
    ir_before = print_module(clone)
    version_before = clone.version
    functions_before = {name: print_function(f) for name, f in clone.functions.items()}
    try:
        changed = run_pass(clone, pass_name)
    except Exception as error:  # noqa: BLE001 - any pass crash is a finding.
        return [
            ValidationFailure(
                benchmark, pass_name, "crash", f"{type(error).__name__}: {error}"
            )
        ]
    if changed and clone.version != version_before + 1:
        failures.append(
            ValidationFailure(
                benchmark,
                pass_name,
                "cache",
                f"changed=True but module version went {version_before} -> "
                f"{clone.version} (expected exactly one bump)",
            )
        )
    elif not changed:
        if clone.version != version_before:
            failures.append(
                ValidationFailure(
                    benchmark,
                    pass_name,
                    "cache",
                    f"changed=False but module version went {version_before} -> "
                    f"{clone.version}",
                )
            )
        if print_module(clone) != ir_before:
            failures.append(
                ValidationFailure(
                    benchmark,
                    pass_name,
                    "cache",
                    "changed=False but the printed IR differs — version-keyed "
                    "observation caches would serve stale results",
                )
            )
    for name, function in clone.functions.items():
        text_before = functions_before.get(name)
        if function.stamp <= version_before and print_function(function) != text_before:
            failures.append(
                ValidationFailure(
                    benchmark,
                    pass_name,
                    "cache",
                    f"@{name} {'is new' if text_before is None else 'changed'} but its "
                    f"stamp is {function.stamp}, not above the pre-pass version "
                    f"{version_before} — its memoised observations would be stale",
                )
            )
    errors = verify_module(clone, raise_on_error=False)
    if errors:
        failures.append(
            ValidationFailure(benchmark, pass_name, "verifier", "; ".join(errors[:3]))
        )
    elif reference is not None:
        try:
            result = run_module(clone)
        except (ExecutionError, OpaqueFunctionError) as error:
            failures.append(
                ValidationFailure(
                    benchmark,
                    pass_name,
                    "differential",
                    f"optimized module no longer runs: {error}",
                )
            )
        else:
            if result != reference:
                failures.append(
                    ValidationFailure(
                        benchmark,
                        pass_name,
                        "differential",
                        f"output changed: {reference!r} -> {result!r}",
                    )
                )
    return failures


def journaled_state(module: Module) -> tuple:
    """Everything a rolled-back :class:`Journal` owes its module, in a form
    that compares: the printed IR, what prints nowhere (the version, stamps,
    fresh-name counters and unprinted ``attrs``) and the dicts' orders."""
    return (
        print_module(module),
        module.version,
        [
            (name, function.stamp, function._next_value_id, function._next_block_id)
            for name, function in module.functions.items()
        ],
        list(module.globals),
        dict(module.metadata),
        [dict(inst.attrs) for inst in module.instructions()],
    )


def validate_rollback(
    module: Module, pass_name: str, benchmark: str = "<module>"
) -> List[ValidationFailure]:
    """Run one pass over a clone of ``module`` under a journal, roll it back,
    and check that nothing shows: :func:`journaled_state` is what it was and
    the verifier finds use lists, name sets and cached analyses equal to a
    scan. A pass that wrote the IR behind the mutation surface fails here."""
    clone = module.clone()
    # Warm, as a session's module is: a stale cached analysis is a finding.
    for function in clone.defined_functions():
        natural_loops(function)
    before = journaled_state(clone)
    journal = Journal(clone)
    try:
        run_pass(clone, pass_name)
    except Exception:  # noqa: BLE001 - validate_pass reports the crash.
        pass
    finally:
        journal.rollback()
    if journaled_state(clone) != before:
        detail = "the module differs after rollback"
    else:
        # The bookkeeping audit is part of the structural tier.
        detail = "; ".join(verify_module(clone, raise_on_error=False, semantic=False)[:3])
    return [ValidationFailure(benchmark, pass_name, "rollback", detail)] if detail else []


def count_over_stamped(module: Module, pass_name: str) -> int:
    """How many functions ``pass_name`` stamped without changing their text:
    each is a per-function observation recomputed for nothing."""
    clone = module.clone()
    try:
        run_pass(clone, pass_name)
    except Exception:  # noqa: BLE001 - validate_pass reports the crash.
        return 0
    before = module.functions
    return sum(
        name in before
        and function.stamp != before[name].stamp
        and print_function(function) == print_function(before[name])
        for name, function in clone.functions.items()
    )


class LintReport(NamedTuple):
    """The outcome of a lint sweep."""

    benchmarks: int
    checks: int
    failures: List[ValidationFailure]
    # Stamps that moved over unchanged text: wasted recomputes, not failures.
    over_stamped: int

    @property
    def ok(self) -> bool:
        return not self.failures


def lint_module(
    module: Module,
    benchmark: str = "<module>",
    passes: Optional[Iterable[str]] = None,
    differential: bool = True,
) -> List[ValidationFailure]:
    """Validate every pass (and the Oz/O3 pipelines) against one module."""
    failures: List[ValidationFailure] = []
    baseline = verify_module(module, raise_on_error=False)
    if baseline:
        # A benchmark that does not verify clean is a generator/parser bug;
        # report it once rather than blaming all the passes.
        return [
            ValidationFailure(benchmark, "<input>", "verifier", "; ".join(baseline[:3]))
        ]
    if passes is None:
        passes = sorted(set(PASS_REGISTRY) - LINT_EXCLUDED_PASSES)
    reference = _reference_output(module) if differential else None
    for pass_name in passes:
        failures.extend(validate_pass(module, pass_name, benchmark, reference))
        failures.extend(validate_rollback(module, pass_name, benchmark))
    # The pipelines exercise pass *interactions* the per-pass sweep cannot.
    for label, pipeline in (("pipeline:Oz", OZ_PIPELINE), ("pipeline:O3", O3_PIPELINE)):
        clone = module.clone()
        try:
            for pass_name in pipeline:
                run_pass(clone, pass_name)
        except Exception as error:  # noqa: BLE001
            failures.append(
                ValidationFailure(
                    benchmark, label, "crash", f"{type(error).__name__}: {error}"
                )
            )
            continue
        errors = verify_module(clone, raise_on_error=False)
        if errors:
            failures.append(
                ValidationFailure(benchmark, label, "verifier", "; ".join(errors[:3]))
            )
        elif reference is not None:
            try:
                result = run_module(clone)
            except (ExecutionError, OpaqueFunctionError) as error:
                failures.append(
                    ValidationFailure(
                        benchmark, label, "differential", f"no longer runs: {error}"
                    )
                )
            else:
                if result != reference:
                    failures.append(
                        ValidationFailure(
                            benchmark,
                            label,
                            "differential",
                            f"output changed: {reference!r} -> {result!r}",
                        )
                    )
    return failures


def lint_datasets(
    dataset_names: Optional[Iterable[str]] = None,
    benchmarks_per_dataset: int = 2,
    passes: Optional[Iterable[str]] = None,
    differential: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> LintReport:
    """Lint every registered pass over samples of the builtin datasets.

    Datasets are effectively unbounded (several are generated), so the sweep
    takes the first ``benchmarks_per_dataset`` benchmarks of each dataset —
    deterministic, so CI failures reproduce locally.
    """
    from repro.llvm.datasets.suites import make_llvm_datasets

    datasets = make_llvm_datasets()
    if dataset_names is not None:
        wanted = set(dataset_names)
        datasets = [d for d in datasets if d.name in wanted]
        missing = wanted - {d.name for d in datasets}
        if missing:
            raise ValueError(f"unknown dataset(s): {sorted(missing)}")

    pass_list = (
        sorted(set(PASS_REGISTRY) - LINT_EXCLUDED_PASSES)
        if passes is None
        else list(passes)
    )
    benchmarks = 0
    checks = 0
    failures: List[ValidationFailure] = []
    over_stamped = 0
    for dataset in datasets:
        taken = 0
        for bench in dataset.benchmarks():
            if taken >= benchmarks_per_dataset:
                break
            taken += 1
            benchmarks += 1
            uri = str(bench.uri)
            if progress:
                progress(f"lint {uri} ({len(pass_list)} passes)")
            bench_failures = lint_module(
                bench.program, uri, passes=pass_list, differential=differential
            )
            over_stamped += sum(count_over_stamped(bench.program, name) for name in pass_list)
            checks += len(pass_list) + 2  # +2 for the Oz/O3 pipelines.
            failures.extend(bench_failures)
            if progress:
                for failure in bench_failures:
                    progress(f"  FAIL {failure}")
    return LintReport(
        benchmarks=benchmarks, checks=checks, failures=failures, over_stamped=over_stamped
    )
