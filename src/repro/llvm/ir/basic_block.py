"""Basic blocks."""

from typing import Iterator, List, Optional

from repro.llvm.ir.instructions import TERMINATOR_OPCODES, Instruction
from repro.llvm.ir.journal import RECORDING, forget_names, landing_index, reserve_names
from repro.llvm.ir.types import LABEL
from repro.llvm.ir.values import Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator.

    Basic blocks are values (of label type) so that branch and phi
    instructions can reference them directly as operands.

    ``instructions`` is read freely and written only through
    :meth:`append`, :meth:`insert`, :meth:`remove` and
    :meth:`move_instructions`, which keep ``parent``
    links, the owning function's name set and its cached CFG analyses (which
    read each block's last instruction) current. They move an instruction
    around without touching what it uses; deleting one is
    ``Instruction.erase``.
    """

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str):
        super().__init__(LABEL, name=name)
        self.instructions: List[Instruction] = []
        self.parent = None  # Set when appended to a Function.

    def append(self, instruction: Instruction) -> Instruction:
        """Append an instruction to the end of the block."""
        return self.insert(len(self.instructions), instruction)

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        instructions = self.instructions
        function = self.parent
        undo = RECORDING.undo
        if undo is not None:
            index = landing_index(index, len(instructions))
            undo.append((_uninsert, self, index, instruction.parent))
            name = instruction.name
            if function is not None and name and name not in function._value_names:
                undo.append((function._value_names.discard, name))
        instruction.parent = self
        if function is not None:
            if instruction.name:
                function._value_names.add(instruction.name)
            # The CFG reads only the last instruction of each block.
            if instruction.opcode in TERMINATOR_OPCODES or (
                index >= len(instructions)
                and instructions
                and instructions[-1].opcode in TERMINATOR_OPCODES
            ):
                function.invalidate_analyses()
        instructions.insert(index, instruction)
        return instruction

    def remove(self, instruction: Instruction) -> None:
        """Unlink an instruction, leaving its operands (and their use lists)
        alone: the first half of a move. See ``Instruction.erase``."""
        instructions = self.instructions
        index = instructions.index(instruction)
        function = self.parent
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_reinsert, self, index, instruction))
            name = instruction.name
            if function is not None and name and name in function._value_names:
                undo.append((function._value_names.add, name))
        del instructions[index]
        instruction.parent = None
        if function is not None:
            if instruction.name:
                function._value_names.discard(instruction.name)
            if instruction.opcode in TERMINATOR_OPCODES or index == len(instructions):
                function.invalidate_analyses()

    def move_instructions(self, start: int, destination: "BasicBlock") -> None:
        """Move ``instructions[start:]`` to the end of ``destination``: a block
        split (inlining) or, from 0, a merge into a predecessor."""
        moved = self.instructions[start:]
        source_function, function = self.parent, destination.parent
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_move_back, self, destination, moved))
        del self.instructions[start:]
        for instruction in moved:
            instruction.parent = destination
        destination.instructions.extend(moved)
        if source_function is not function:
            names = [instruction.name for instruction in moved if instruction.name]
            if source_function is not None:
                forget_names(source_function._value_names, names, undo)
            if function is not None:
                reserve_names(function._value_names, names, undo)
        for owner in (source_function, function):
            if owner is not None:
                owner.invalidate_analyses()

    def erase(self) -> None:
        """Delete the block: unlink it from its function (if it is in one) and
        erase every instruction in it. Branches and phis that still name the
        block must have been rewritten first."""
        if self.parent is not None:
            self.parent.remove_block(self)
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_refill, self, self.instructions))
        for instruction in reversed(self.instructions):
            instruction.parent = None
            instruction.erase()
        self.instructions = []

    def replace_all_uses_with(self, new) -> int:
        for user in self.uses:
            user._cfg_changed()
        return super().replace_all_uses_with(new)

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's terminator instruction, if it has one."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        terminator = self.terminator
        return list(terminator.successors()) if terminator else []

    def phis(self) -> List[Instruction]:
        """The phi instructions at the head of the block."""
        return [inst for inst in self.instructions if inst.opcode == "phi"]

    def non_phi_instructions(self) -> List[Instruction]:
        return [inst for inst in self.instructions if inst.opcode != "phi"]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def short(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self.instructions)} instructions)"


def _uninsert(block: BasicBlock, index: int, parent) -> None:
    """Undo ``block.insert(index, instruction)``."""
    block.instructions.pop(index).parent = parent


def _reinsert(block: BasicBlock, index: int, instruction: Instruction) -> None:
    """Undo ``block.remove(instruction)``."""
    block.instructions.insert(index, instruction)
    instruction.parent = block


def _move_back(block: BasicBlock, destination: BasicBlock, moved: List[Instruction]) -> None:
    """Undo ``block.move_instructions(start, destination)``."""
    del destination.instructions[len(destination.instructions) - len(moved):]
    block.instructions.extend(moved)
    for instruction in moved:
        instruction.parent = block


def _refill(block: BasicBlock, instructions: List[Instruction]) -> None:
    """Undo the block's half of ``block.erase()``; each instruction's operands
    are on record separately."""
    block.instructions = instructions
    for instruction in instructions:
        instruction.parent = block
