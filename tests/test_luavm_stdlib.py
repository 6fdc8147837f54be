"""Lua stdlib: print, table, string, math, type conversion."""

import pytest

from repro.luavm import LuaRuntimeError, LuaVM


def run(source):
    vm = LuaVM()
    vm.run(source)
    return vm


def test_print_captured():
    vm = run("print('a', 1, true, nil)")
    assert vm.output == ["a\t1\ttrue\tnil"]


def test_tostring_and_tonumber():
    vm = run("""
    a = tostring(1.0)
    b = tonumber('42')
    c = tonumber('3.5')
    d = tonumber('nope')
    """)
    assert vm.get_global("a") == "1"
    assert vm.get_global("b") == 42
    assert vm.get_global("c") == 3.5
    assert vm.get_global("d") is None


def test_type():
    vm = run("""
    a = type(nil) b = type(true) c = type(1) d = type('s')
    e = type({}) f = type(print)
    """)
    assert [vm.get_global(x) for x in "abcdef"] == [
        "nil", "boolean", "number", "string", "table", "function"]


def test_table_insert_remove_concat():
    vm = run("""
    t = {}
    table.insert(t, 'a')
    table.insert(t, 'b')
    table.insert(t, 'c')
    removed = table.remove(t, 2)
    last = table.remove(t)
    joined = table.concat(t, '-')
    n = #t
    """)
    assert vm.get_global("removed") == "b"
    assert vm.get_global("last") == "c"
    assert vm.get_global("joined") == "a"
    assert vm.get_global("n") == 1


def test_table_remove_empty():
    vm = run("t = {} x = table.remove(t)")
    assert vm.get_global("x") is None


def test_string_functions():
    vm = run("""
    a = string.len('hello')
    b = string.sub('hello', 2, 4)
    c = string.sub('hello', -3)
    d = string.upper('abc')
    e = string.lower('ABC')
    f = string.find('filename.docx', '.docx')
    g = string.find('filename.docx', '.pdf')
    h = string.format('%s=%d', 'x', 7)
    i = string.rep('ab', 3)
    """)
    assert vm.get_global("a") == 5
    assert vm.get_global("b") == "ell"
    assert vm.get_global("c") == "llo"
    assert vm.get_global("d") == "ABC"
    assert vm.get_global("e") == "abc"
    assert vm.get_global("f") == 9
    assert vm.get_global("g") is None
    assert vm.get_global("h") == "x=7"
    assert vm.get_global("i") == "ababab"


def test_string_format_coerces_integral_floats():
    vm = run("x = string.format('%d', 3.0)")
    assert vm.get_global("x") == "3"


def test_math_functions():
    vm = run("""
    a = math.floor(3.7)
    b = math.ceil(3.2)
    c = math.abs(-5)
    d = math.max(1, 9, 4)
    e = math.min(1, 9, 4)
    """)
    assert vm.get_global("a") == 3
    assert vm.get_global("b") == 4
    assert vm.get_global("c") == 5
    assert vm.get_global("d") == 9
    assert vm.get_global("e") == 1


@pytest.mark.parametrize("source, function", [
    ("x = string.rep(nil, 2)", "string.rep"),
    ("table.insert(nil, 1)", "table.insert"),
    ("x = math.floor('a')", "math.floor"),
    ("x = string.format('%d', 'q')", "string.format"),
])
def test_bad_stdlib_argument_raises_lua_error_naming_function(source,
                                                              function):
    with pytest.raises(LuaRuntimeError,
                       match="bad argument to '%s'" % function):
        LuaVM().run(source)


def test_registered_host_errors_propagate_unchanged():
    vm = LuaVM()

    def host_fn():
        raise KeyError("host failure")

    vm.register("host_fn", host_fn)
    with pytest.raises(KeyError, match="host failure"):
        vm.run("host_fn()")
