"""The pass registry, the pass manager, and the phase-ordering action space.

``ACTION_SPACE_PASSES`` lists the 124 pass actions exposed by the LLVM
phase-ordering environment, matching the count extracted automatically from
LLVM in the paper. A substantial subset are fully implemented transformations
on the simulated IR; the remainder are registered as no-op actions (exactly as
many real LLVM passes are no-ops for any particular module — e.g. coroutine or
GC passes on code containing neither). ``-gvn-sink`` is implemented but
deliberately *excluded* from the action space: the paper reports removing it
from CompilerGym after the state-validation machinery caught its
nondeterministic output, and this reproduction keeps it around (outside the
action space) so the validation tests can demonstrate the same detection.

Registering a pass
------------------
:func:`run_pass` is the pass manager. Like LLVM's, it knows which functions a
pass changed, and stamps exactly those with the module's new ``version`` (see
:meth:`Module.bump_version`); the session's per-function observation memo
recomputes a function only when its stamp moved. What a pass owes the manager
depends on how it is registered:

* **Function pass** — ``run(function) -> bool``, registered as
  ``FunctionPass(run)``. It transforms one defined function and reads or
  writes nothing outside it. The manager calls it on every defined function
  and stamps those for which it returned ``True``; the pass has no other duty.
* **Module pass** — ``run(module, touched) -> bool``, registered as
  ``ModulePass(run)``: interprocedural passes and those that edit globals or
  metadata. It must add every function it mutates or creates to the
  ``touched`` set (deleting a function needs no report) and return whether it
  changed anything at all — a pass that only drops a global returns ``True``
  with ``touched`` empty.
* A plain ``(module) -> bool`` callable is also accepted (never-firing
  placeholders, passes that tests patch in): it cannot say what it touched, so
  when it returns ``True`` every function is stamped.

``repro-compilergym lint`` audits all of this against the printed IR: a
function whose text changed (or which is new) must carry a stamp above the
pre-pass version, ``changed=False`` must leave the text alone.

Mutating the IR
---------------
A pass reads ``inst.operands``, ``inst.attrs``, ``block.instructions``,
``function.blocks``, ``function.args`` and the module's ``functions``,
``globals`` and ``metadata`` freely and *writes* them only through the methods
below. They exist so that three things are current at every moment of a pass
without anyone rescanning the function, so that a pass costs what it changes,
and so that what it changed can be taken back (see "Running under a journal"):

* ``value.uses`` — the instructions holding ``value`` in an operand slot, one
  entry per slot. Ask it instead of walking the function; rewrite them all
  with ``value.replace_all_uses_with(new)``. A constant keeps no use list:
  it is interned, one object per type and value shared by every module, so
  its ``uses`` is always the empty ``NO_USES``, and the slots that hold a
  constant cannot be found through ``uses`` — scan the operands for them
  (``replace_all_uses_with`` on a constant raises ``TypeError``). ``new``
  may be a constant all the same.
* the function's sets of value and block names, which make
  ``new_value_name``/``new_block_name`` a set probe. A name is reserved while
  its instruction or block is attached to the function, not before.
* the cached CFG analyses of :mod:`repro.llvm.ir.cfg` (``predecessors``,
  ``reverse_postorder``, ``dominator_tree``, ``natural_loops``). They are
  dropped the moment the block list changes or a block's last instruction or
  a terminator's successors do — so asking again mid-pass is both correct
  and, if nothing of the kind happened, free. A result already in a local
  variable is the pass's own snapshot, as before.

The surface:

* operands — ``inst.set_operand(i, value)``, ``inst.set_operands(values)``,
  and on top of them ``phi.set_phi_incoming(pairs)`` and
  ``inst.replace_successor(old_block, new_block)`` (terminators and phis);
  ``Instruction(...)`` and ``inst.clone(operands)`` register their operands.
* placement — ``block.append/insert/remove(inst)`` and
  ``block.move_instructions(start, other_block)`` relink an instruction and
  leave what it uses alone; ``function.add_block/insert_block/remove_block``
  and ``function.set_args`` do the same one level up.
* deletion — ``inst.erase()`` unlinks *and* gives up the operands;
  ``block.erase()`` does it for a block and everything in it. ``remove`` is
  the first half of a move, ``erase`` is for good: an instruction that is
  merely removed stays in its operands' use lists (``-sink`` would count it
  as a user), so whatever a pass deletes, it erases — after rewriting the
  users of its result.
* everything else a pass may change — ``inst.set_attr(key, value)`` and
  ``inst.pop_attr(key)``; a name is given when the value is made
  (``Instruction(..., name=...)``, ``inst.clone(operands, name=...)``) and
  fresh ones come from ``function.new_value_name/new_block_name``;
  ``module.add_function/remove_function``, ``module.add_global/remove_global``
  and ``module.set_metadata/clear_metadata``. Versions and stamps are the
  pass manager's (``Module.bump_version``). Opcodes, types, function
  attributes and global initializers are not rewritten by any pass; one that
  needs to gets a method here first.

Two habits keep a pass's output independent of bookkeeping order. Decide from
the use lists *before* mutating when the decision is meant to be about the
function as the pass found it (``-die``'s single sweep, ``-loop-deletion``).
And never let the order of ``value.uses`` reach the output — it is the order
slots were written, which a ``Module.clone()`` does not preserve; sort by
program position where order matters (``-reg2mem`` names its reloads so).

Nothing else may write those fields: the verifier (``REPRO_VERIFY_IR=1``,
``make(..., verify_ir=True)``, ``repro-compilergym lint``) recomputes use
lists, name sets and cached analyses from scratch after every pass and
rejects a module where they differ, and ``tests/test_ir_mutation.py`` fails
on the assignment itself.

Running under a journal
-----------------------
A search's candidate (``fork -> step -> close``) does not get a copy of the
module: the runtime runs the candidate's pass on the *parent's* module with a
:class:`repro.llvm.ir.journal.Journal` open, reads the observations, and
rolls back. Every method above records its own inverse while a journal is
open on the calling thread, and costs one thread-local read when none is.

*What a pass may assume*: nothing new. It cannot tell whether a journal is
open, is handed the same module, and reports ``changed`` and ``touched`` as
always. It may raise; the rollback happens all the same.

*What rollback guarantees*: the module prints as it did; ``version``, every
``stamp``, the fresh-name counters, ``attrs`` that print nowhere and the
orders of ``functions``/``globals``/``metadata`` are what they were, so every
later fresh name is that of a module nobody touched; use lists and name sets
equal a scan (use lists possibly in another order — see the two habits
above); a function whose CFG was edited has lost its cached analyses, any
other keeps them.

*What the parent's observation memos keep*: what the candidate computed at or
below the restored version — a per-function entry whose stamp is at most
``version``, a whole-module entry at exactly ``version``. Text the candidate's
pass changed is stamped above the restored version (the stamp contract
above), so such an entry describes text the parent still has; entries above
it describe the candidate's own changes and are dropped, so a later pass of
the parent's that reuses their version never meets them.

*Why nothing may be written behind the surface*: a write the journal did not
see is not taken back, and the parent goes on — for the rest of its episode,
and into the result cache under its own prefix — with a module that one of
its candidates half-changed. ``repro-compilergym lint`` runs every pass under
a journal on every lint benchmark and compares after the rollback;
``tests/test_ir_mutation.py`` does it after random warm-ups and checks that
the next pass cannot tell either.
"""

from typing import Callable, Dict, List, Optional, Set, Union

from repro.llvm.ir.cfg import predecessors
from repro.llvm.ir.function import Function
from repro.llvm.ir.module import Module
from repro.llvm.passes import constants, cse, dce, instcombine, ipo, loops, lowering, mem2reg, simplifycfg
from repro.llvm.passes.utils import is_pure

PassFn = Callable[[Module], bool]


class StampingPass:
    """Called as ``pass(module, touched)``: adds the functions it changed to ``touched``."""

    def __init__(self, run: Callable[..., bool]):
        self.run = run


class ModulePass(StampingPass):
    """``run(module, touched) -> bool``: the pass fills ``touched`` itself."""

    def __call__(self, module: Module, touched: Set[Function]) -> bool:
        return self.run(module, touched)


class FunctionPass(StampingPass):
    """``run(function) -> bool``, applied to every defined function."""

    def __call__(self, module: Module, touched: Set[Function]) -> bool:
        touched.update(f for f in module.defined_functions() if self.run(f))
        return bool(touched)


def _noop_pass(name: str) -> PassFn:
    """A registered action that never modifies the module.

    These correspond to LLVM passes whose subject matter (coroutines,
    vectorization, profiling instrumentation, GC statepoints, ...) does not
    exist in the simulated IR.
    """

    def run(module: Module) -> bool:  # noqa: ARG001 - signature fixed by registry
        return False

    run.__name__ = f"noop_{name.replace('-', '_')}"
    run.__doc__ = f"-{name}: no-op on the simulated IR (subject matter not modelled)."
    return run


def gvn_sink(function: Function) -> bool:
    """-gvn-sink: a deliberately nondeterministic sinking pass.

    Reproduces the reproducibility bug the paper describes: the real pass
    sorted basic-block pointers by address, so its output depended on memory
    layout. Here the instruction visit order depends on ``id()`` values, which
    vary between processes, producing occasionally different (but still
    semantically correct) sink decisions. It is excluded from the action space
    and exists to exercise the validation machinery.
    """
    changed = False
    candidates = []
    for block in function.blocks:
        successors = block.successors()
        if len(successors) != 2:
            continue
        for inst in block.instructions:
            if not is_pure(inst) or not inst.has_result:
                continue
            user_blocks = {user.parent for user in inst.uses}
            if len(user_blocks) == 1 and next(iter(user_blocks)) in successors:
                candidates.append(inst)
    # The nondeterminism: candidates are processed in id() order, and only
    # the first half are sunk.
    candidates.sort(key=id)
    for inst in candidates[: max(1, len(candidates) // 2)] if candidates else []:
        target = next(iter({user.parent for user in inst.uses}))
        if len(predecessors(function).get(target, [])) != 1:
            continue
        if inst.parent is None or any(user.opcode == "phi" for user in inst.uses):
            continue
        inst.parent.remove(inst)
        target.insert(len(target.phis()), inst)
        changed = True
    return changed


# Passes with real implementations on the simulated IR.
_FUNCTION_PASSES: Dict[str, Callable[[Function], bool]] = {
    "adce": dce.aggressive_dce,
    "aggressive-instcombine": instcombine.aggressive_instcombine,
    "break-crit-edges": lowering.break_critical_edges,
    "constprop": constants.constant_propagation,
    "correlated-propagation": simplifycfg.correlated_value_propagation,
    "dce": dce.dead_code_elimination,
    "die": dce.dead_instruction_elimination,
    "div-rem-pairs": instcombine.div_rem_pairs,
    "dse": mem2reg.dead_store_elimination,
    "early-cse": cse.early_cse,
    "early-cse-memssa": cse.early_cse,
    "gvn": cse.global_value_numbering,
    "gvn-hoist": cse.global_value_numbering,
    "instcombine": instcombine.instruction_combining,
    "instsimplify": instcombine.instruction_simplify,
    "jump-threading": simplifycfg.jump_threading,
    "licm": loops.loop_invariant_code_motion,
    "loop-deletion": loops.loop_deletion,
    "loop-instsimplify": instcombine.instruction_simplify,
    "loop-simplify": loops.loop_simplify,
    "loop-simplifycfg": simplifycfg.simplify_cfg,
    "loop-sink": cse.sink,
    "loop-unroll": loops.loop_unroll,
    "lowerswitch": lowering.lower_switch,
    "mem2reg": mem2reg.promote_memory_to_registers,
    "mergereturn": simplifycfg.merge_return,
    "newgvn": cse.new_gvn,
    "reassociate": instcombine.reassociate,
    "reg2mem": mem2reg.demote_registers_to_memory,
    "sccp": constants.sparse_conditional_constant_propagation,
    "simplifycfg": simplifycfg.simplify_cfg,
    "sink": cse.sink,
    "sroa": mem2reg.scalar_replacement_of_aggregates,
    "tailcallelim": ipo.tail_call_elimination,
}
_MODULE_PASSES: Dict[str, Callable[[Module, Set[Function]], bool]] = {
    "always-inline": ipo.always_inline,
    "constmerge": constants.constant_merge,
    "deadargelim": ipo.dead_argument_elimination,
    "globaldce": ipo.global_dce,
    "globalopt": ipo.global_opt,
    "inline": ipo.inline_functions,
    "ipconstprop": constants.interprocedural_sccp,
    "ipsccp": constants.interprocedural_sccp,
    "mergefunc": ipo.merge_functions,
    "partial-inliner": ipo.partial_inliner,
    "strip": lowering.strip_metadata,
    "strip-dead-prototypes": ipo.strip_dead_prototypes,
    "strip-debug-declare": lowering.strip_debug_declare,
    "strip-nondebug": lowering.strip_metadata,
}
# Implemented as placeholders that never fire on this IR (see each docstring).
_NEVER_FIRING: Dict[str, PassFn] = {
    "argpromotion": ipo.argument_promotion,
    "barrier": lowering.barrier,
    "canonicalize-aliases": lowering.canonicalize_aliases,
    "indvars": loops.induction_variable_simplify,
    "lcssa": lowering.barrier,
    "loop-idiom": loops.loop_idiom,
    "loop-rotate": loops.loop_rotate,
    "loweratomic": lowering.lower_atomic,
    "lower-expect": lowering.lower_expect,
    "lowerinvoke": lowering.lower_invoke,
    "memcpyopt": mem2reg.memcpy_optimization,
    "name-anon-globals": lowering.name_anon_globals,
    "verify": lowering.verify_pass,
}
_IMPLEMENTED: Dict[str, Union[StampingPass, PassFn]] = {
    **{name: FunctionPass(run) for name, run in _FUNCTION_PASSES.items()},
    **{name: ModulePass(run) for name, run in _MODULE_PASSES.items()},
    **_NEVER_FIRING,
}

# Actions registered for action-space parity with the paper's 124-pass space
# whose subject matter the simulated IR does not model.
_NOOP_ACTION_NAMES: List[str] = [
    "add-discriminators",
    "alignment-from-assumptions",
    "attributor",
    "bdce",
    "callsite-splitting",
    "called-value-propagation",
    "consthoist",
    "coro-cleanup",
    "coro-early",
    "coro-elide",
    "coro-split",
    "cross-dso-cfi",
    "ee-instrument",
    "elim-avail-extern",
    "flattencfg",
    "float2int",
    "forceattrs",
    "functionattrs",
    "globalsplit",
    "guard-widening",
    "hotcoldsplit",
    "infer-address-spaces",
    "inferattrs",
    "inject-tli-mappings",
    "insert-gcov-profiling",
    "instnamer",
    "irce",
    "libcalls-shrinkwrap",
    "load-store-vectorizer",
    "loop-data-prefetch",
    "loop-distribute",
    "loop-fusion",
    "loop-guard-widening",
    "loop-interchange",
    "loop-load-elim",
    "loop-predication",
    "loop-reduce",
    "loop-reroll",
    "loop-unroll-and-jam",
    "loop-unswitch",
    "loop-vectorize",
    "loop-versioning",
    "loop-versioning-licm",
    "lower-constant-intrinsics",
    "lower-guard-intrinsic",
    "lower-matrix-intrinsics",
    "lower-widenable-condition",
    "mergeicmps",
    "mldst-motion",
    "nary-reassociate",
    "partially-inline-libcalls",
    "pgo-memop-opt",
    "prune-eh",
    "redundant-dbg-inst-elim",
    "rewrite-statepoints-for-gc",
    "rpo-functionattrs",
    "sancov",
    "scalarizer",
    "separate-const-offset-from-gep",
    "simple-loop-unswitch",
    "slp-vectorizer",
    "slsr",
    "speculative-execution",
]

# The full registry: every pass that can be run by name.
PASS_REGISTRY: Dict[str, Union[StampingPass, PassFn]] = dict(_IMPLEMENTED)
for _name in _NOOP_ACTION_NAMES:
    PASS_REGISTRY[_name] = _noop_pass(_name)
# Registered but excluded from the action space (see module docstring).
PASS_REGISTRY["gvn-sink"] = FunctionPass(gvn_sink)

# The phase-ordering action space: 124 pass actions, as in the paper.
ACTION_SPACE_PASSES: List[str] = sorted(_IMPLEMENTED) + sorted(_NOOP_ACTION_NAMES)
assert len(ACTION_SPACE_PASSES) == 124, (
    f"The phase-ordering action space must have 124 passes, got {len(ACTION_SPACE_PASSES)}"
)

# The default -Oz pipeline (optimize for size): redundancy and dead-code
# removal without size-increasing transformations such as unrolling.
OZ_PIPELINE: List[str] = [
    "simplifycfg",
    "sroa",
    "early-cse",
    "instcombine",
    "simplifycfg",
    "ipsccp",
    "globalopt",
    "deadargelim",
    "inline",
    "mem2reg",
    "sccp",
    "jump-threading",
    "correlated-propagation",
    "reassociate",
    "gvn",
    "instcombine",
    "licm",
    "loop-deletion",
    "dse",
    "adce",
    "simplifycfg",
    "instcombine",
    "globaldce",
    "constmerge",
    "mergefunc",
    "strip-dead-prototypes",
    "dce",
]

# The default -O3 pipeline (optimize for speed): as -Oz plus loop unrolling
# and more aggressive inlining.
O3_PIPELINE: List[str] = [
    "simplifycfg",
    "sroa",
    "early-cse",
    "instcombine",
    "simplifycfg",
    "ipsccp",
    "globalopt",
    "deadargelim",
    "partial-inliner",
    "inline",
    "mem2reg",
    "sccp",
    "jump-threading",
    "correlated-propagation",
    "reassociate",
    "loop-simplify",
    "licm",
    "loop-unroll",
    "instcombine",
    "gvn",
    "sccp",
    "instcombine",
    "loop-deletion",
    "dse",
    "adce",
    "simplifycfg",
    "instcombine",
    "globaldce",
    "strip-dead-prototypes",
    "dce",
]


def get_pass(name: str) -> Union[StampingPass, PassFn]:
    """Look up a pass by flag name (with or without the leading dash)."""
    key = name.lstrip("-")
    if key not in PASS_REGISTRY:
        raise LookupError(f"Unknown pass: {name!r}")
    return PASS_REGISTRY[key]


def run_pass(module: Module, name: str) -> bool:
    """Run a single named pass. Returns whether the module changed.

    A reported change bumps the module's monotonic ``version`` counter, which
    is what invalidates version-keyed observation caches, and stamps the
    functions the pass changed with it (every function, for a pass that cannot
    say). Passes must therefore be honest about both: see the module docstring.
    """
    run = get_pass(name)
    touched: Optional[Set[Function]] = set() if isinstance(run, StampingPass) else None
    changed = run(module) if touched is None else run(module, touched)
    if changed:
        module.bump_version(touched)
    return changed


def run_pipeline(module: Module, names: List[str]) -> bool:
    """Run a sequence of named passes. Returns whether any of them changed
    the module."""
    changed = False
    for name in names:
        if run_pass(module, name):
            changed = True
    return changed
