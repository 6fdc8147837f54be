"""Lua-subset execution semantics."""

import pytest

from repro.luavm import LuaRuntimeError, LuaVM


def run_and_get(source, name):
    vm = LuaVM()
    vm.run(source)
    return vm.get_global(name)


def test_arithmetic_and_precedence():
    assert run_and_get("x = 2 + 3 * 4", "x") == 14
    assert run_and_get("x = (2 + 3) * 4", "x") == 20
    assert run_and_get("x = 10 % 3", "x") == 1
    assert run_and_get("x = -2 * 3", "x") == -6


def test_division_by_zero_raises():
    with pytest.raises(LuaRuntimeError):
        LuaVM().run("x = 1 / 0")


def test_comparison_and_logic():
    assert run_and_get("x = 1 < 2 and 3 >= 3", "x") is True
    assert run_and_get("x = nil or 'fallback'", "x") == "fallback"
    assert run_and_get("x = false and error_never_evaluated", "x") is False
    assert run_and_get("x = not nil", "x") is True


def test_lua_truthiness_zero_is_true():
    assert run_and_get("if 0 then x = 'zero-true' end", "x") == "zero-true"


def test_string_concat_coerces_numbers():
    assert run_and_get("x = 'v' .. 2", "x") == "v2"
    assert run_and_get("x = 1.0 .. ''", "x") == "1"


def test_length_operator():
    assert run_and_get("x = #'hello'", "x") == 5
    assert run_and_get("t = {1,2,3} x = #t", "x") == 3


def test_local_scoping_and_closures():
    source = """
    local counter = 0
    function bump() counter = counter + 1 return counter end
    bump() bump()
    result = bump()
    """
    assert run_and_get(source, "result") == 3


def test_locals_shadow_globals():
    source = """
    x = 'global'
    function f()
      local x = 'local'
      return x
    end
    y = f()
    """
    vm = LuaVM()
    vm.run(source)
    assert vm.get_global("x") == "global"
    assert vm.get_global("y") == "local"


def test_recursion():
    vm = LuaVM()
    vm.run("""
    function fact(n)
      if n <= 1 then return 1 end
      return n * fact(n - 1)
    end
    """)
    assert vm.call("fact", 10) == 3628800


def test_while_and_break():
    source = """
    s = 0
    local i = 0
    while true do
      i = i + 1
      if i > 100 then break end
      s = s + i
    end
    """
    assert run_and_get(source, "s") == 5050


def test_numeric_for_with_step():
    assert run_and_get("s = 0 for i = 10, 1, -2 do s = s + i end", "s") == 30
    with pytest.raises(LuaRuntimeError):
        LuaVM().run("for i = 1, 2, 0 do end")


def test_tables_mixed_keys():
    source = """
    t = { 10, 20, tag = 'x' }
    t[3] = 30
    t['other'] = true
    a = t[1] + t[2] + t[3]
    b = t.tag
    """
    vm = LuaVM()
    vm.run(source)
    assert vm.get_global("a") == 60
    assert vm.get_global("b") == "x"


def test_setting_nil_deletes_key():
    source = "t = {1, 2} t[2] = nil n = #t"
    assert run_and_get(source, "n") == 1


def test_method_call_passes_self():
    source = """
    account = { balance = 100 }
    function account.deposit(self, amount)
      self.balance = self.balance + amount
      return self.balance
    end
    result = account:deposit(50)
    """
    assert run_and_get(source, "result") == 150


def test_float_and_int_table_keys_unify():
    assert run_and_get("t = {} t[1] = 'a' x = t[1.0]", "x") == "a"


def test_calling_nil_raises():
    with pytest.raises(LuaRuntimeError):
        LuaVM().run("undefined_function()")


def test_indexing_nil_raises():
    with pytest.raises(LuaRuntimeError):
        LuaVM().run("x = ghost.field")


def test_arithmetic_on_string_raises():
    with pytest.raises(LuaRuntimeError):
        LuaVM().run("x = 'a' + 1")


def test_instruction_budget_stops_infinite_loops():
    vm = LuaVM(instruction_budget=5_000)
    with pytest.raises(LuaRuntimeError):
        vm.run("while true do end")


def test_host_bridge_round_trip():
    vm = LuaVM()
    received = []
    vm.register("host_fn", lambda items: (received.append(items), len(items))[1])
    vm.run("n = host_fn({ 'a', 'b', 'c' })")
    assert received == [["a", "b", "c"]]
    assert vm.get_global("n") == 3


def test_host_bridge_dict_tables():
    vm = LuaVM()
    vm.register("get_config", lambda: {"interval": 30, "targets": ["x"]})
    vm.run("cfg = get_config() i = cfg.interval t1 = cfg.targets[1]")
    assert vm.get_global("i") == 30
    assert vm.get_global("t1") == "x"


def test_vm_call_undefined_raises():
    with pytest.raises(LuaRuntimeError):
        LuaVM().call("nothing")


def test_do_block_scopes():
    source = "do local hidden = 1 end x = hidden"
    assert run_and_get(source, "x") is None


def test_return_from_chunk():
    vm = LuaVM()
    assert vm.run("return 1 + 2") == 3


# --- border semantics and coercion regressions --------------------------------
#
# These pin the subset semantics documented in the interpreter module
# docstring.

from repro.luavm import LuaTable  # noqa: E402


@pytest.fixture
def vm():
    return LuaVM()


def test_length_stops_at_first_nil_hole(vm):
    vm.run("t = {1, 2, 3}\nt[2] = nil\nn = #t")
    assert vm.get_global("n") == 1


def test_length_of_table_built_with_nil_hole_from_host():
    # Passing None values through the constructor must not create
    # phantom entries that inflate the border.
    table = LuaTable({1: "a", 2: None, 3: "c"})
    assert table.length() == 1
    assert table.get(2) is None


def test_constructor_normalises_float_keys_like_set():
    table = LuaTable({1.0: "a"})
    assert table.get(1) == "a"
    assert table.length() == 1


def test_length_empty_and_dense(vm):
    vm.run("a = #{}\nb = #{10, 20, 30}")
    assert vm.get_global("a") == 0
    assert vm.get_global("b") == 3


def test_concat_rejects_non_scalar_values(vm):
    with pytest.raises(LuaRuntimeError, match="concatenate a table value"):
        vm.run("x = {} .. 'tail'")
    with pytest.raises(LuaRuntimeError, match="concatenate a boolean value"):
        vm.run("x = true .. 'tail'")
    with pytest.raises(LuaRuntimeError, match="concatenate a nil value"):
        vm.run("x = nil .. 'tail'")


def test_concat_coerces_numbers_but_comparison_never_coerces(vm):
    vm.run("joined = 1 .. '2'")
    assert vm.get_global("joined") == "12"
    with pytest.raises(LuaRuntimeError, match="cannot compare"):
        vm.run("x = 1 < '2'")
    with pytest.raises(LuaRuntimeError, match="cannot compare"):
        vm.run("x = 'a' <= 1")


def test_equality_never_crosses_types(vm):
    vm.run("""
    a = 1 == '1'
    b = 1 == true
    c = 0 == false
    d = nil == false
    """)
    assert vm.get_global("a") is False
    assert vm.get_global("b") is False
    assert vm.get_global("c") is False
    assert vm.get_global("d") is False


def test_booleans_do_not_order(vm):
    with pytest.raises(LuaRuntimeError, match="cannot compare"):
        vm.run("x = true < 1")
    with pytest.raises(LuaRuntimeError, match="cannot compare"):
        vm.run("x = false < true")


def test_call_depth_cap_raises_typed_error(vm):
    with pytest.raises(LuaRuntimeError, match="call stack overflow"):
        vm.run("local function f() return f() end\nreturn f()")


# --- script-visible messages name Lua types, never Python ones ---------------

@pytest.mark.parametrize("source, message", [
    ("x = #nil", "attempt to get length of a nil value"),
    ("x = #true", "attempt to get length of a boolean value"),
    ("x = (1)[2]", "attempt to index a number value"),
    ("x = ghost.field", "attempt to index a nil value"),
    ("local f = 3 f()", "attempt to call a number value"),
    ("local f = 's' f()", "attempt to call a string value"),
    ("x = 1 < '2'", "cannot compare number with string"),
    ("x = {} < nil", "cannot compare table with nil"),
])
def test_error_messages_name_lua_types(vm, source, message):
    with pytest.raises(LuaRuntimeError) as excinfo:
        vm.run(source)
    assert str(excinfo.value) == message


# --- semantic edge cases and abort limits ------------------------------------

EDGE_PROGRAMS = [
    # Closure capture is per-iteration, not per-loop.
    pytest.param("""
    local fns = {}
    for i = 1, 3 do
      local v = i * 10
      fns[i] = function() return v end
    end
    return fns[1]() + fns[2]() + fns[3]()
    """, 60, id="closure-per-iteration"),
    # break unwinds nested block scopes without corrupting outer locals.
    pytest.param("""
    local acc = 0
    for i = 1, 5 do
      local x = i
      if x == 3 then break end
      acc = acc + x
    end
    return acc
    """, 3, id="break-unwinds-scopes"),
    # Method call evaluates the receiver once, before the arguments.
    pytest.param("""
    local calls = ''
    local t = {n = 2}
    function t.mul(self, k) return self.n * k end
    return t:mul(21)
    """, 42, id="method-call-receiver"),
    # Numeric for bounds are evaluated once, before the loop runs.
    pytest.param("""
    local n = 3
    local hits = 0
    for i = 1, n do
      n = 0
      hits = hits + 1
    end
    return hits
    """, 3, id="for-bounds-evaluated-once"),
    # and/or short-circuit skips side effects.
    pytest.param("""
    count = 0
    function bump() count = count + 1 return true end
    local x = false and bump()
    local y = true or bump()
    return count
    """, 0, id="and-or-short-circuit"),
    # Chunk-level locals live in the global scope.
    pytest.param("local exposed = 41\nreturn exposed + 1", 42,
                 id="chunk-locals-are-global-scope"),
    # do-block scoping (parsed as if true).
    pytest.param("""
    local x = 1
    do
      local x = 2
    end
    return x
    """, 1, id="do-block-scope"),
]


@pytest.mark.parametrize("source, expected", EDGE_PROGRAMS)
def test_semantic_edge_cases(vm, source, expected):
    assert vm.run(source) == expected


BUDGET_MESSAGE = "instruction budget exhausted (20000 steps)"
DEPTH_MESSAGE = "call stack overflow (depth 200)"

HOSTILE_PROGRAMS = [
    pytest.param("while true do end", BUDGET_MESSAGE,
                 id="empty-while"),
    pytest.param("local i = 0\nwhile true do i = i + 1 end", BUDGET_MESSAGE,
                 id="counting-while"),
    pytest.param("local function f() return f() end\nreturn f()",
                 DEPTH_MESSAGE, id="tail-recursion"),
    pytest.param("local function f(n) return f(n + 1) end\nreturn f(0)",
                 DEPTH_MESSAGE, id="recursion-with-argument"),
    pytest.param("for i = 1, 100000000 do end", BUDGET_MESSAGE,
                 id="huge-for"),
]


@pytest.mark.parametrize("source, message", HOSTILE_PROGRAMS)
def test_hostile_programs_abort_with_typed_error(source, message):
    vm = LuaVM(instruction_budget=20000)
    with pytest.raises(LuaRuntimeError) as excinfo:
        vm.run(source)
    assert str(excinfo.value) == message


def test_cross_chunk_function_calls(vm):
    """A function defined by one run() is callable from a later chunk."""
    vm.run("function helper(n) return n + 100 end")
    assert vm.run("return helper(1) + helper(2)") == 203
    assert vm.call("helper", 5) == 105
