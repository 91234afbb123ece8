"""Basic blocks."""

from typing import Iterator, List, Optional

from repro.llvm.ir.instructions import TERMINATOR_OPCODES, Instruction
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
        instruction.parent = self
        function = self.parent
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
        del instructions[index]
        instruction.parent = None
        function = self.parent
        if function is not None:
            if instruction.name:
                function._value_names.discard(instruction.name)
            if instruction.opcode in TERMINATOR_OPCODES or index == len(instructions):
                function.invalidate_analyses()

    def move_instructions(self, start: int, destination: "BasicBlock") -> None:
        """Move ``instructions[start:]`` to the end of ``destination``: a block
        split (inlining) or, from 0, a merge into a predecessor."""
        moved = self.instructions[start:]
        del self.instructions[start:]
        for instruction in moved:
            instruction.parent = destination
        destination.instructions.extend(moved)
        source_function, function = self.parent, destination.parent
        if source_function is not function:
            names = [instruction.name for instruction in moved if instruction.name]
            if source_function is not None:
                source_function._value_names.difference_update(names)
            if function is not None:
                function._value_names.update(names)
        for owner in (source_function, function):
            if owner is not None:
                owner.invalidate_analyses()

    def erase(self) -> None:
        """Delete the block: unlink it from its function (if it is in one) and
        erase every instruction in it. Branches and phis that still name the
        block must have been rewritten first."""
        if self.parent is not None:
            self.parent.remove_block(self)
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
