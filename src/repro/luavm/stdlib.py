"""Standard library exposed to scripts: the pieces Flame modules use."""

import math


def build_stdlib(vm):
    """Return the global bindings installed into a fresh VM."""
    from repro.luavm.interpreter import LuaTable, _lua_str, _lua_type_name

    def lua_print(*args):
        vm.output.append("\t".join(_lua_str(a) for a in args))

    def lua_tostring(value):
        return _lua_str(value)

    def lua_tonumber(value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return float(value) if "." in value else int(value)
            except ValueError:
                return None
        return None

    # table library -----------------------------------------------------------
    def table_insert(table, value):
        table.set(table.length() + 1, value)

    def table_remove(table, index=None):
        length = table.length()
        if length == 0:
            return None
        if index is None:
            index = length
        index = int(index)
        value = table.get(index)
        for i in range(index, length):
            table.set(i, table.get(i + 1))
        table.set(length, None)
        return value

    def table_concat(table, separator=""):
        return separator.join(_lua_str(v) for v in table.array_items())

    table_lib = LuaTable()
    table_lib.set("insert", table_insert)
    table_lib.set("remove", table_remove)
    table_lib.set("concat", table_concat)

    # string library ------------------------------------------------------------
    def string_sub(text, start, stop=None):
        start = int(start)
        length = len(text)
        if stop is None:
            stop = length
        stop = int(stop)
        if start < 0:
            start = max(length + start + 1, 1)
        if stop < 0:
            stop = length + stop + 1
        if start < 1:
            start = 1
        return text[start - 1 : stop]

    def string_find(text, fragment):
        position = text.find(fragment)
        return None if position == -1 else position + 1

    def string_format(template, *args):
        # Lua %d wants integer conversion; python is stricter about floats.
        coerced = []
        for arg in args:
            if isinstance(arg, float) and arg.is_integer():
                coerced.append(int(arg))
            else:
                coerced.append(arg)
        return template % tuple(coerced)

    string_lib = LuaTable()
    string_lib.set("len", lambda s: len(s))
    string_lib.set("sub", string_sub)
    string_lib.set("upper", lambda s: s.upper())
    string_lib.set("lower", lambda s: s.lower())
    string_lib.set("find", string_find)
    string_lib.set("format", string_format)
    string_lib.set("rep", lambda s, n: s * int(n))

    # math library ----------------------------------------------------------------
    math_lib = LuaTable()
    math_lib.set("floor", lambda x: math.floor(x))
    math_lib.set("ceil", lambda x: math.ceil(x))
    math_lib.set("abs", lambda x: abs(x))
    math_lib.set("max", lambda *xs: max(xs))
    math_lib.set("min", lambda *xs: min(xs))
    math_lib.set("huge", math.inf)

    return {
        "print": lua_print,
        "tostring": lua_tostring,
        "tonumber": lua_tonumber,
        "type": _lua_type_name,
        "table": table_lib,
        "string": string_lib,
        "math": math_lib,
    }
