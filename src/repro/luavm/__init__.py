"""A small, genuine interpreter for a Lua subset.

Flame's defining oddity: "Many parts of Flame modules are written in Lua.
They are then interpreted through the Lua virtual machine. ... the fact
that the modules are written in Lua makes it very easy to extend the
functionalities of the malware by other modules downloaded from the
attack center" (§III.A).

To reproduce that design property — malware logic shipped as *data* and
swapped at runtime — the Flame model's modules are actual scripts run by
this VM.  The implemented subset covers what the modules need: numbers,
strings, booleans, nil, tables (array + hash parts), ``local``/global
variables, functions and closures, ``if/elseif/else``, ``while``,
numeric ``for``, ``break``/``return``, arithmetic/comparison/concat
operators, and a registrable host API.

Execution is lex → parse → tree-walk (:mod:`repro.luavm.interpreter`,
which also states the subset's semantic rules).  The VM enforces an
instruction budget and a call-depth cap so a hostile or buggy script
cannot hang or crash the simulation.
"""

from repro.luavm.errors import LuaError, LuaRuntimeError, LuaSyntaxError
from repro.luavm.interpreter import LuaTable, LuaVM

__all__ = [
    "LuaError",
    "LuaRuntimeError",
    "LuaSyntaxError",
    "LuaTable",
    "LuaVM",
]
