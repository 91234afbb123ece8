"""Modules: the top-level IR container."""

import functools
from typing import Dict, Iterable, Iterator, List, Optional

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.journal import RECORDING
from repro.llvm.ir.values import NO_USES, Constant, GlobalVariable, Value, _use


class Module:
    """A translation unit: global variables plus functions.

    Modules are the unit of compilation: benchmarks hold a module, passes
    transform a module in place, and observations are computed from a module.

    ``functions``, ``globals`` and ``metadata`` are read freely and written
    only through :meth:`add_function`, :meth:`remove_function`,
    :meth:`add_global`, :meth:`remove_global`, :meth:`set_metadata` and
    :meth:`clear_metadata`; ``version`` and the stamps only by
    :meth:`bump_version`. An open :class:`~repro.llvm.ir.journal.Journal`
    holds the three dicts' entries as they were (their order reaches the
    printed IR) and records each stamp that moves.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        # Free-form module metadata (used e.g. to tag generator provenance).
        self.metadata: Dict[str, str] = {}
        # Monotonic mutation counter: bumped by every pass that reports a
        # change (see passes.registry.run_pass). Observation caches key on it,
        # so a stale version must never describe a mutated module — passes
        # that mutate while reporting ``changed=False`` are lint failures.
        self.version: int = 0

    def bump_version(self, touched: Optional[Iterable[Function]] = None) -> int:
        """Record a mutation. Returns the new version.

        ``touched`` names the functions the mutation changed or created; each
        gets the new version as its ``stamp``, which is what per-function
        observation caches key on. Without it nobody knows what changed, so
        every function is stamped. Stamps are only ever drawn from this one
        counter: a function deleted and re-created under its old name carries
        a stamp no cache has seen.
        """
        self.version += 1
        undo = RECORDING.undo
        for function in self.functions.values() if touched is None else touched:
            if undo is not None:
                undo.append((setattr, function, "stamp", function.stamp))
            function.stamp = self.version
        return self.version

    # -- construction ---------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        self.functions[function.name] = function
        return function

    def add_global(self, global_var: GlobalVariable) -> GlobalVariable:
        self.globals[global_var.name] = global_var
        return global_var

    def remove_function(self, name: str) -> None:
        """Delete a function and erase its body, so that the globals and
        functions it used stop listing its instructions as users."""
        function = self.functions.pop(name, None)
        if function is not None:
            for block in list(function.blocks):
                block.erase()

    def remove_global(self, name: str) -> None:
        """Delete a global variable. Nothing may still use it."""
        del self.globals[name]

    def set_metadata(self, key: str, value: str) -> None:
        self.metadata[key] = value

    def clear_metadata(self) -> None:
        self.metadata.clear()

    def function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    # -- iteration --------------------------------------------------------------

    def defined_functions(self) -> List[Function]:
        """Functions with bodies (excludes external declarations)."""
        return [f for f in self.functions.values() if not f.is_declaration]

    def instructions(self) -> Iterator[Instruction]:
        for function in self.functions.values():
            yield from function.instructions()

    @property
    def instruction_count(self) -> int:
        """Total number of IR instructions — the paper's code-size metric."""
        return sum(len(f) for f in self.functions.values())

    @property
    def size_in_bytes(self) -> int:
        """Rough in-memory size estimate, used by the benchmark cache."""
        return 64 + 96 * self.instruction_count + 48 * len(self.functions)

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return self.instruction_count

    def clone(self) -> "Module":
        """An independent structural copy (sessions, forks, baselines, lint).

        *Copied* — one new object per source object, so nothing mutable is
        shared and either side may be optimised without the other noticing:
        the module, its ``globals``/``functions``/``metadata`` dicts, every
        :class:`GlobalVariable`, :class:`Function` (with its ``args`` and
        ``attributes``), :class:`BasicBlock` and :class:`Instruction` (with
        its ``operands`` list and ``attrs`` dict), and every other operand the
        module does not own — ``undef``, a value detached from its block —
        once per clone, however many instructions reference it. ``parent``
        links and operands point at the clone's own objects, and so does
        every ``uses`` list: it is rebuilt from the clone's operands, names
        only the clone's instructions, and the source's are untouched. Each
        function gets its own copy of the name sets and an empty analysis
        cache.

        *Shared* — only immutable things: each interned :class:`Constant`
        (one object per type and value; it keeps no use list), interned
        :class:`Type` singletons (identity comparisons keep working), names,
        opcodes, and the scalar values held in ``attrs``, ``metadata`` and
        global initializers.

        *Carried over unchanged* — ``version`` and each function's ``stamp``
        (the clone describes identical IR, so caches keyed on either stay
        valid across a fork), each function's
        ``_next_value_id``/``_next_block_id`` (fresh names keep
        being unique and identical on both sides), and dict/list orders, so
        ``print_module(clone) == print_module(source)``.
        """
        return _Cloner().clone_module(self)

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, {len(self.functions)} functions, "
            f"{self.instruction_count} instructions)"
        )


@functools.lru_cache(maxsize=None)
def _slot_names(cls) -> tuple:
    return tuple(name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ()))


def _shell(source):
    """A new object of ``source``'s class holding the same attribute values.

    Fields that are scalars or interned types are final as copied; the caller
    replaces every mutable field and every reference to another IR object. A
    value's use list starts empty and fills as the clone's operands are
    written. This is the general copy, for the few objects a module has few
    of; instructions and blocks are copied field by field below.
    """
    cls = type(source)
    shell = cls.__new__(cls)
    for name in _slot_names(cls):
        setattr(shell, name, getattr(source, name))
    if hasattr(source, "__dict__"):
        shell.__dict__.update(source.__dict__)
    if isinstance(source, Value):
        shell.uses = []
    return shell


class _Cloner(dict):
    """One :meth:`Module.clone` call: the map (this dict) from source objects
    to their copies, filled in two passes. IR values hash and compare by
    identity, so the source objects themselves are the keys.

    The first pass walks the ownership tree (module -> functions -> arguments,
    blocks -> instructions) allocating a shell per object and pointing
    ``parent`` at the new owner. Operands may refer to anything — a later
    instruction, a block of a later function, a function, a global — so they
    are rewritten in a second pass, once every owned object has its copy.
    A constant is shared, not copied: it maps to itself.
    """

    __slots__ = ("pending",)

    def __init__(self):
        super().__init__()
        # (source, copy) instruction pairs whose operands are still to be
        # remapped.
        self.pending: List[tuple] = []

    def clone_module(self, source: "Module") -> "Module":
        module = _shell(source)
        module.metadata = dict(source.metadata)
        module.globals = {name: self.value(g) for name, g in source.globals.items()}
        module.functions = {name: self.value(f) for name, f in source.functions.items()}
        self.remap_operands()
        return module

    def function(self, source: Function) -> Function:
        function = _shell(source)
        self[source] = function
        function.attributes = list(source.attributes)
        function._value_names = set(source._value_names)
        function._block_names = set(source._block_names)
        function._analyses = {}
        function.args = [self.value(arg) for arg in source.args]
        function.blocks = [self.block(block, function) for block in source.blocks]
        return function

    def block(self, source: BasicBlock, parent) -> BasicBlock:
        block = BasicBlock.__new__(BasicBlock)
        self[source] = block
        block.type = source.type
        block.name = source.name
        block.uses = []
        block.parent = parent
        block.instructions = self.instructions(source.instructions, block)
        return block

    def instructions(self, sources: List[Instruction], parent) -> List[Instruction]:
        """Shells of ``sources`` (a block's instructions, or one detached
        instruction) in ``parent``, queued for :meth:`remap_operands`."""
        copies = []
        pending = self.pending
        new = Instruction.__new__
        for source in sources:
            instruction = new(Instruction)
            self[source] = instruction
            instruction.type = source.type
            instruction.name = source.name
            # A void instruction is never an operand and keeps sharing NO_USES.
            uses = source.uses
            instruction.uses = uses if uses is NO_USES else []
            instruction.opcode = source.opcode
            instruction.attrs = source.attrs.copy()
            instruction.parent = parent
            copies.append(instruction)
            pending.append((source, instruction))
        return copies

    def value(self, source):
        """The copy of ``source``, made now if this is its first sighting.

        Called for what the module's dicts and argument lists hold and for
        operands (or ``parent`` links) that turn out not to be owned by the
        module: a constant is itself; other leaves (``undef``, arguments,
        globals) are a single shell; a detached instruction, block or
        function is copied with whatever hangs off it, through the same map.
        """
        copy = self.get(source)
        if copy is not None or source is None:
            return copy
        if isinstance(source, Function):
            return self.function(source)
        if isinstance(source, (BasicBlock, Instruction)):
            # Copying the owner first may copy ``source`` along with it.
            parent = self.value(source.parent)
            copy = self.get(source)
            if copy is None:
                if isinstance(source, BasicBlock):
                    copy = self.block(source, parent)
                else:
                    (copy,) = self.instructions([source], parent)
            return copy
        copy = source if type(source) is Constant else _shell(source)
        self[source] = copy
        return copy

    __missing__ = value

    def remap_operands(self) -> None:
        # A miss is an operand met for the first time (``__missing__``).
        copy_of = self.__getitem__
        # The list grows while it is walked: copying a detached operand
        # queues the instructions that come with it.
        for source, instruction in self.pending:
            instruction.operands = operands = list(map(copy_of, source.operands))
            for copy in operands:
                _use(copy, instruction)

