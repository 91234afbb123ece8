"""ForkOnStep wrapper: checkpoint the environment before every step."""

from repro.core.wrappers.core import CompilerEnvWrapper


class ForkOnStep(CompilerEnvWrapper):
    """Maintains a stack of environment forks, one per step, enabling undo.

    ``undo()`` pops the most recent fork and restores the environment to the
    state before the last step — functionality compilers lack natively
    (most optimization passes have no inverse), and which the CompilerGym
    Explorer web tool relies on for interactive search-tree navigation.
    """

    def __init__(self, env):
        super().__init__(env)
        self.stack = []

    def reset(self, *args, **kwargs):
        for fork in self.stack:
            fork.close()
        self.stack = []
        return self.env.reset(*args, **kwargs)

    def map_actions(self, actions):
        self.stack.append(self.env.fork())
        return actions

    def undo(self):
        """Restore the environment to the state before the most recent step.

        Raises:
            IndexError: If there is no step to undo.
        """
        if not self.stack:
            raise IndexError(
                "undo() called on an empty ForkOnStep stack: "
                "no steps have been taken since the last reset()"
            )
        self.env.close()
        self.env = self.stack.pop()
        return self.env

    def close(self):
        for fork in self.stack:
            fork.close()
        self.stack = []
        return self.env.close()
