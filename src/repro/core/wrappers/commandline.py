"""Wrappers that modify Commandline action spaces."""

from typing import Iterable, List, Optional

from repro.core.spaces.commandline import Commandline, CommandlineFlag
from repro.core.wrappers.core import ActionWrapper, CompilerEnvWrapper


class CommandlineWithTerminalAction(CompilerEnvWrapper):
    """Adds an explicit end-of-episode action to a Commandline action space.

    The LLVM phase-ordering episodes have no terminal state; this wrapper lets
    an agent learn *when to stop* by selecting the added terminal action.
    """

    def __init__(self, env, terminal=None):
        super().__init__(env)
        base = env.action_space
        if not isinstance(base, Commandline):
            raise TypeError(
                f"CommandlineWithTerminalAction requires a Commandline action space, got {type(base).__name__}"
            )
        terminal = terminal or CommandlineFlag(
            name="end-of-episode", flag="# end-of-episode", description="End the episode"
        )
        self._terminal_index = len(base.flags)
        self._wrapped_action_space = Commandline(
            list(base.flags) + [terminal], name=f"{base.name}+terminal"
        )

    @property
    def action_space(self):
        return self._wrapped_action_space

    @action_space.setter
    def action_space(self, space):
        self.env.action_space = space

    def map_actions(self, actions):
        # The actions before the terminal one are applied; none may be left,
        # which makes the step a zero-action step.
        if self._terminal_index in actions:
            return actions[: actions.index(self._terminal_index)]
        return actions

    def finish_step(self, actions, result):
        if self._terminal_index not in actions:
            return result
        observation, reward, _, info = result
        return observation, reward, True, info

    def fork(self):
        forked = CommandlineWithTerminalAction.__new__(CommandlineWithTerminalAction)
        CompilerEnvWrapper.__init__(forked, self.env.fork())
        forked._terminal_index = self._terminal_index
        forked._wrapped_action_space = self._wrapped_action_space
        return forked


class ConstrainedCommandline(ActionWrapper):
    """Constrains a Commandline action space to a subset of its flags.

    This is how the paper replicates Autophase's 42-pass action space from the
    full 124-pass LLVM space.
    """

    def __init__(self, env, flags: Iterable[str], name: Optional[str] = None):
        super().__init__(env)
        base = env.action_space
        if not isinstance(base, Commandline):
            raise TypeError(
                f"ConstrainedCommandline requires a Commandline action space, got {type(base).__name__}"
            )
        self._forward: List[int] = []
        selected_flags: List[CommandlineFlag] = []
        index = {f.flag: i for i, f in enumerate(base.flags)}
        by_name = {f.name: i for i, f in enumerate(base.flags)}
        for flag in flags:
            if flag in index:
                position = index[flag]
            elif flag in by_name:
                position = by_name[flag]
            else:
                raise LookupError(f"Flag not found in action space: {flag!r}")
            self._forward.append(position)
            selected_flags.append(base.flags[position])
        self._constrained_space = Commandline(
            selected_flags, name=name or f"{base.name}-constrained"
        )

    @property
    def action_space(self):
        return self._constrained_space

    @action_space.setter
    def action_space(self, space):
        self.env.action_space = space

    def action(self, action: int) -> int:
        return self._forward[action]

    def reverse_action(self, action: int) -> int:
        return self._forward.index(action)

    def fork(self):
        forked = ConstrainedCommandline.__new__(ConstrainedCommandline)
        CompilerEnvWrapper.__init__(forked, self.env.fork())
        forked._forward = list(self._forward)
        forked._constrained_space = self._constrained_space
        return forked
