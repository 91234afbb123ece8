"""Functions."""

from typing import Dict, Iterator, List, Optional

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.journal import RECORDING, forget_names, landing_index, reserve_names
from repro.llvm.ir.types import I32, PTR, Type
from repro.llvm.ir.values import Argument, Value


class Function(Value):
    """A function: a list of arguments and an ordered list of basic blocks.

    A function with no blocks is a *declaration* (an external function such as
    ``printf``), which the optimizer must treat as opaque.

    ``blocks`` and ``args`` are read freely and written only through
    :meth:`add_block`, :meth:`insert_block`, :meth:`remove_block` and
    :meth:`set_args`. Together with ``BasicBlock.append``/``insert``/``remove``
    those keep two things current: the sets of value and block names in use
    (so a fresh name is a set probe, not a walk of the function) and the
    cache of CFG analyses in :mod:`repro.llvm.ir.cfg`, which any edit to the
    block list or to a block's terminator drops.
    """

    def __init__(
        self,
        name: str,
        return_type: Type = I32,
        arg_types: Optional[List[Type]] = None,
        arg_names: Optional[List[str]] = None,
        attributes: Optional[List[str]] = None,
    ):
        super().__init__(PTR, name=name)
        self.return_type = return_type
        arg_types = list(arg_types or [])
        arg_names = list(arg_names or [f"arg{i}" for i in range(len(arg_types))])
        self.args: List[Argument] = [
            Argument(name, type) for name, type in zip(arg_names, arg_types)
        ]
        self.blocks: List[BasicBlock] = []
        # Function attributes, e.g. "inlinehint", "noinline", "internal".
        self.attributes: List[str] = list(attributes or [])
        self._next_value_id = 0
        self._next_block_id = 0
        # Names of the arguments and of every instruction in ``blocks``; names
        # of ``blocks``. An instruction or block that is not (yet) attached
        # does not reserve its name.
        self._value_names = {arg.name for arg in self.args}
        self._block_names = set()
        # Results of the analyses in ir.cfg for the current CFG, by name.
        self._analyses: Dict[str, object] = {}
        # The owning module's ``version`` as of the last pass that changed
        # (or created) this function; see :meth:`Module.bump_version`.
        self.stamp = 0

    # -- structure -----------------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def add_block(self, block_or_name) -> BasicBlock:
        """Append a basic block (or create one from a name)."""
        block = block_or_name if isinstance(block_or_name, BasicBlock) else BasicBlock(block_or_name)
        return self.insert_block(len(self.blocks), block)

    def insert_block(self, index: int, block: BasicBlock) -> BasicBlock:
        blocks = self.blocks
        undo = RECORDING.undo
        if undo is not None:
            index = landing_index(index, len(blocks))
            undo.append((_uninsert_block, self, index, block.parent))
        block.parent = self
        blocks.insert(index, block)
        reserve_names(self._block_names, [block.name], undo)
        reserve_names(
            self._value_names, [inst.name for inst in block.instructions if inst.name], undo
        )
        self.invalidate_analyses()
        return block

    def remove_block(self, block: BasicBlock) -> None:
        """Unlink a block, instructions and all; ``BasicBlock.erase`` deletes it."""
        blocks = self.blocks
        index = blocks.index(block)
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_reinsert_block, self, index, block))
        del blocks[index]
        block.parent = None
        forget_names(self._block_names, [block.name], undo)
        forget_names(self._value_names, [inst.name for inst in block.instructions], undo)
        self.invalidate_analyses()

    def set_args(self, args: List[Argument]) -> None:
        """Replace the argument list (``-deadargelim`` drops unused ones)."""
        undo = RECORDING.undo
        if undo is not None:
            undo.append((setattr, self, "args", self.args))
        forget_names(self._value_names, [arg.name for arg in self.args], undo)
        self.args = list(args)
        reserve_names(self._value_names, [arg.name for arg in self.args], undo)

    def invalidate_analyses(self) -> None:
        """Forget the cached CFG analyses: the block list or a terminator changed."""
        undo = RECORDING.undo
        if undo is not None:
            # Whatever is cached when this is undone describes a CFG that is
            # being taken back.
            undo.append((_drop_analyses, self))
        self._analyses.clear()

    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    # -- naming ---------------------------------------------------------------

    def new_value_name(self, prefix: str = "v") -> str:
        """Generate a fresh SSA value name unique within the function."""
        existing = self._value_names
        undo = RECORDING.undo
        if undo is not None:
            undo.append((setattr, self, "_next_value_id", self._next_value_id))
        while True:
            name = f"{prefix}{self._next_value_id}"
            self._next_value_id += 1
            if name not in existing:
                return name

    def new_block_name(self, prefix: str = "bb") -> str:
        """Generate a fresh basic-block name unique within the function."""
        existing = self._block_names
        undo = RECORDING.undo
        if undo is not None:
            undo.append((setattr, self, "_next_block_id", self._next_block_id))
        while True:
            name = f"{prefix}{self._next_block_id}"
            self._next_block_id += 1
            if name not in existing:
                return name

    # -- iteration -------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction in the function."""
        for block in self.blocks:
            yield from block.instructions

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        """The number of instructions in the function."""
        return sum(len(block) for block in self.blocks)

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"Function({kind} @{self.name}, {len(self.blocks)} blocks, {len(self)} instructions)"


def _uninsert_block(function: Function, index: int, parent) -> None:
    """Undo ``function.insert_block(index, block)``."""
    function.blocks.pop(index).parent = parent


def _reinsert_block(function: Function, index: int, block: BasicBlock) -> None:
    """Undo ``function.remove_block(block)``."""
    function.blocks.insert(index, block)
    block.parent = function


def _drop_analyses(function: Function) -> None:
    function._analyses.clear()
