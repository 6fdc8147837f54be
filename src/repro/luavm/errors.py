"""Error types for the Lua-subset VM."""


class LuaError(Exception):
    """Base class for all VM errors."""


class LuaSyntaxError(LuaError):
    """Lexing or parsing failed."""

    def __init__(self, message, line):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


class LuaRuntimeError(LuaError):
    """Execution failed (type error, missing name, budget exhausted...)."""
