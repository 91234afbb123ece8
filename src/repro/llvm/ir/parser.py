"""Textual IR parser.

Parses the subset of LLVM-style textual IR produced by
:mod:`repro.llvm.ir.printer`. Used for round-trip testing, for compiling
user-supplied "source" into benchmarks, and by the command-line tools.
"""

import re
from typing import Dict, List, Optional, Tuple

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import I1, I32, PTR, VOID, Type, parse_type
from repro.llvm.ir.values import Constant, GlobalVariable, UndefValue, Value


class ParseError(ValueError):
    """The IR text could not be parsed."""


_DEFINE_RE = re.compile(r"^define\s+(\S+)\s+@([\w.$-]+)\((.*)\)\s*(.*)\{$")
_DECLARE_RE = re.compile(r"^declare\s+(\S+)\s+@([\w.$-]+)\((.*)\)\s*(.*)$")
_GLOBAL_RE = re.compile(
    r"^@([\w.$-]+)\s*=\s*(global|constant)\s+(?:\[(\d+)\s+x\s+(\S+)\]|(\S+))\s+(.+)$"
)
_LABEL_RE = re.compile(r"^([\w.$-]+):$")
_RESULT_RE = re.compile(r"^%([\w.$-]+)\s*=\s*(.*)$")
_CALL_RE = re.compile(r"^call\s+(\S+)\s+@([\w.$-]+)\((.*)\)(\s*;\s*pure)?$")


def _split_commas(text: str) -> List[str]:
    """Split on commas that are not inside brackets or parentheses."""
    parts, depth, current = [], 0, []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_number(token: str, type: Type):  # noqa: A002
    if type.is_float:
        return float(token)
    return int(token)


class _FunctionParser:
    """Parses the body of one function with deferred operand resolution."""

    def __init__(self, module: Module, function: Function):
        self.module = module
        self.function = function
        self.values: Dict[str, Value] = {arg.name: arg for arg in function.args}
        self.blocks: Dict[str, BasicBlock] = {}
        # (instruction, [(ref, type), ...]) pairs awaiting operand resolution.
        self.pending: List[Tuple[Instruction, List[Tuple[str, Type]]]] = []

    def block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            block = BasicBlock(name)
            self.blocks[name] = block
        return self.blocks[name]

    def resolve(self, ref: str, type: Type) -> Value:  # noqa: A002
        if type.name == "label":
            return self.block(ref.lstrip("%"))
        if ref.startswith("%"):
            name = ref[1:]
            if name not in self.values:
                raise ParseError(f"Use of undefined value %{name} in @{self.function.name}")
            return self.values[name]
        if ref.startswith("@"):
            name = ref[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise ParseError(f"Use of undefined global @{name}")
        if ref == "undef":
            return UndefValue(type)
        try:
            return Constant(type, _parse_number(ref, type))
        except ValueError as error:
            raise ParseError(f"Cannot parse operand {ref!r}") from error

    # -- instruction parsing -------------------------------------------------

    def parse_instruction(self, line: str, block: BasicBlock) -> None:
        name = ""
        body = line
        match = _RESULT_RE.match(line)
        if match:
            name, body = match.group(1), match.group(2)
        inst, refs = self._parse_body(body, name)
        block.append(inst)
        if inst.name:
            self.values[inst.name] = inst
        self.pending.append((inst, refs))

    def _parse_body(self, body: str, name: str) -> Tuple[Instruction, List[Tuple[str, Type]]]:
        tokens = body.split(None, 1)
        opcode = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""

        from repro.llvm.ir.instructions import (
            BINARY_OPCODES,
            CAST_OPCODES,
            COMPARE_OPCODES,
        )

        if opcode in BINARY_OPCODES:
            type_token, operands = rest.split(None, 1)
            type = parse_type(type_token)  # noqa: A002
            lhs, rhs = _split_commas(operands)
            return Instruction(opcode, type=type, name=name), [(lhs, type), (rhs, type)]

        if opcode in COMPARE_OPCODES:
            predicate, type_token, operands = rest.split(None, 2)
            type = parse_type(type_token)  # noqa: A002
            lhs, rhs = _split_commas(operands)
            return (
                Instruction(opcode, type=I1, name=name, attrs={"predicate": predicate}),
                [(lhs, type), (rhs, type)],
            )

        if opcode in CAST_OPCODES:
            match = re.match(r"^(\S+)\s+(\S+)\s+to\s+(\S+)$", rest)
            if not match:
                raise ParseError(f"Malformed cast: {body!r}")
            from_type = parse_type(match.group(1))
            to_type = parse_type(match.group(3))
            return Instruction(opcode, type=to_type, name=name), [(match.group(2), from_type)]

        if opcode == "alloca":
            parts = _split_commas(rest)
            element_type = parse_type(parts[0])
            refs: List[Tuple[str, Type]] = []
            if len(parts) > 1:
                size_type, size_ref = parts[1].split()
                refs.append((size_ref, parse_type(size_type)))
            return (
                Instruction("alloca", type=PTR, name=name, attrs={"element_type": element_type}),
                refs,
            )

        if opcode == "load":
            parts = _split_commas(rest)
            loaded_type = parse_type(parts[0])
            pointer_ref = parts[1].split()[1]
            return Instruction("load", type=loaded_type, name=name), [(pointer_ref, PTR)]

        if opcode == "store":
            parts = _split_commas(rest)
            value_type_token, value_ref = parts[0].split()
            pointer_ref = parts[1].split()[1]
            return (
                Instruction("store", type=VOID),
                [(value_ref, parse_type(value_type_token)), (pointer_ref, PTR)],
            )

        if opcode == "getelementptr":
            parts = _split_commas(rest)
            element_type = parse_type(parts[0])
            refs = []
            for part in parts[1:]:
                type_token, ref = part.split()
                refs.append((ref, parse_type(type_token)))
            return (
                Instruction(
                    "getelementptr", type=PTR, name=name, attrs={"element_type": element_type}
                ),
                refs,
            )

        if opcode == "br":
            parts = _split_commas(rest)
            if len(parts) == 1:
                target = parts[0].split()[1]
                return Instruction("br", type=VOID), [(target, Type("label"))]
            cond_ref = parts[0].split()[1]
            true_ref = parts[1].split()[1]
            false_ref = parts[2].split()[1]
            return (
                Instruction("br", type=VOID),
                [(cond_ref, I1), (true_ref, Type("label")), (false_ref, Type("label"))],
            )

        if opcode == "switch":
            match = re.match(r"^(\S+)\s+(\S+),\s*label\s+(\S+)\s*(.*)$", rest)
            if not match:
                raise ParseError(f"Malformed switch: {body!r}")
            value_type = parse_type(match.group(1))
            refs = [(match.group(2), value_type), (match.group(3), Type("label"))]
            for case in re.findall(r"\[([^\]]+)\]", match.group(4)):
                const_part, label_part = _split_commas(case)
                const_type, const_ref = const_part.split()
                label_ref = label_part.split()[1]
                refs.append((const_ref, parse_type(const_type)))
                refs.append((label_ref, Type("label")))
            return Instruction("switch", type=VOID), refs

        if opcode == "ret":
            if rest.strip() == "void" or not rest.strip():
                return Instruction("ret", type=VOID), []
            type_token, ref = rest.split()
            return Instruction("ret", type=VOID), [(ref, parse_type(type_token))]

        if opcode == "unreachable":
            return Instruction("unreachable", type=VOID), []

        if opcode == "phi":
            type_token, incoming_text = rest.split(None, 1)
            type = parse_type(type_token)  # noqa: A002
            refs = []
            for pair in re.findall(r"\[([^\]]+)\]", incoming_text):
                value_ref, block_ref = _split_commas(pair)
                refs.append((value_ref.strip(), type))
                refs.append((block_ref.strip(), Type("label")))
            return Instruction("phi", type=type, name=name), refs

        if opcode == "call":
            match = _CALL_RE.match(body)
            if not match:
                raise ParseError(f"Malformed call: {body!r}")
            return_type = parse_type(match.group(1))
            callee = match.group(2)
            refs = []
            args_text = match.group(3).strip()
            if args_text:
                for arg in _split_commas(args_text):
                    type_token, ref = arg.split()
                    refs.append((ref, parse_type(type_token)))
            attrs = {"callee": callee, "pure": bool(match.group(4))}
            call_name = name if not return_type.is_void else ""
            return Instruction("call", type=return_type, name=call_name, attrs=attrs), refs

        if opcode == "select":
            parts = _split_commas(rest)
            cond_ref = parts[0].split()[1]
            true_type_token, true_ref = parts[1].split()
            false_type_token, false_ref = parts[2].split()
            value_type = parse_type(true_type_token)
            return (
                Instruction("select", type=value_type, name=name),
                [(cond_ref, I1), (true_ref, value_type), (false_ref, parse_type(false_type_token))],
            )

        raise ParseError(f"Unknown instruction: {body!r}")

    def finalize(self) -> None:
        """Resolve all deferred operand references."""
        for inst, refs in self.pending:
            inst.set_operands([self.resolve(ref, type) for ref, type in refs])


def _parse_args(text: str) -> Tuple[List[Type], List[str]]:
    arg_types, arg_names = [], []
    text = text.strip()
    if not text:
        return arg_types, arg_names
    for i, arg in enumerate(_split_commas(text)):
        parts = arg.split()
        arg_types.append(parse_type(parts[0]))
        arg_names.append(parts[1].lstrip("%") if len(parts) > 1 else f"arg{i}")
    return arg_types, arg_names


def parse_module(text: str) -> Module:
    """Parse textual IR into a :class:`Module`."""
    module = Module()
    lines = text.splitlines()
    # First pass: module name, globals, and function signatures (so that calls
    # and global references resolve regardless of definition order).
    bodies: List[Tuple[Function, List[str]]] = []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("; ModuleID"):
            match = re.search(r"'([^']*)'", line)
            if match:
                module.name = match.group(1)
            continue
        if line.startswith(";"):
            continue
        global_match = _GLOBAL_RE.match(line)
        if global_match:
            name, kind, array_size, array_type, scalar_type, init = global_match.groups()
            element_type = parse_type(array_type or scalar_type)
            initializer = _parse_number(init, element_type) if init != "zeroinitializer" else 0
            module.add_global(
                GlobalVariable(
                    name,
                    element_type=element_type,
                    initializer=initializer,
                    is_constant_global=(kind == "constant"),
                    array_size=int(array_size) if array_size else 1,
                )
            )
            continue
        declare_match = _DECLARE_RE.match(line)
        if declare_match:
            return_type, name, args_text, attrs_text = declare_match.groups()
            arg_types, arg_names = _parse_args(args_text)
            module.add_function(
                Function(
                    name,
                    return_type=parse_type(return_type),
                    arg_types=arg_types,
                    arg_names=arg_names,
                    attributes=attrs_text.split(),
                )
            )
            continue
        define_match = _DEFINE_RE.match(line)
        if define_match:
            return_type, name, args_text, attrs_text = define_match.groups()
            arg_types, arg_names = _parse_args(args_text)
            function = Function(
                name,
                return_type=parse_type(return_type),
                arg_types=arg_types,
                arg_names=arg_names,
                attributes=attrs_text.split(),
            )
            module.add_function(function)
            body: List[str] = []
            while i < len(lines):
                body_line = lines[i].strip()
                i += 1
                if body_line == "}":
                    break
                if body_line and not body_line.startswith(";"):
                    body.append(body_line)
            bodies.append((function, body))
            continue
        raise ParseError(f"Cannot parse line: {line!r}")

    # Second pass: function bodies.
    for function, body in bodies:
        parser = _FunctionParser(module, function)
        current_block: Optional[BasicBlock] = None
        for line in body:
            label_match = _LABEL_RE.match(line)
            if label_match:
                current_block = parser.block(label_match.group(1))
                function.add_block(current_block)
                continue
            if current_block is None:
                current_block = parser.block("entry")
                function.add_block(current_block)
            parser.parse_instruction(line, current_block)
        parser.finalize()
        # Blocks referenced by branches but never defined would be dangling;
        # the verifier reports them, the parser only checks containment.
        for block_name, block in parser.blocks.items():
            if block.parent is None:
                raise ParseError(f"Branch to undefined block %{block_name} in @{function.name}")

    return module
