"""Property-based tests: the Lua VM agrees with Python semantics."""

import random

from hypothesis import given, settings, strategies as st

from repro.luavm import LuaError, LuaVM

_small_int = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=60, deadline=None)
@given(a=_small_int, b=_small_int, c=_small_int)
def test_arithmetic_matches_python(a, b, c):
    vm = LuaVM()
    vm.run("x = %d + %d * %d - (%d - %d)" % (a, b, c, c, a))
    assert vm.get_global("x") == a + b * c - (c - a)


@settings(max_examples=40, deadline=None)
@given(a=_small_int, b=st.integers(min_value=1, max_value=500))
def test_modulo_matches_python(a, b):
    vm = LuaVM()
    vm.run("x = %d %% %d" % (a, b))
    assert vm.get_global("x") == a % b


@settings(max_examples=40, deadline=None)
@given(values=st.lists(_small_int, max_size=20))
def test_table_insert_then_sum_loop(values):
    vm = LuaVM()
    vm.run("""
    items = {}
    function add(v) table.insert(items, v) end
    function total()
      local s = 0
      for i = 1, #items do s = s + items[i] end
      return s
    end
    """)
    for value in values:
        vm.call("add", value)
    assert vm.call("total") == sum(values)


@settings(max_examples=40, deadline=None)
@given(start=st.integers(min_value=-50, max_value=50),
       stop=st.integers(min_value=-50, max_value=50),
       step=st.integers(min_value=1, max_value=7))
def test_numeric_for_matches_range(start, stop, step):
    vm = LuaVM()
    vm.run("n = 0 for i = %d, %d, %d do n = n + 1 end" % (start, stop, step))
    expected = len(range(start, stop + 1, step))
    assert vm.get_global("n") == expected


@settings(max_examples=40, deadline=None)
@given(text=st.text(alphabet=st.characters(min_codepoint=32,
                                           max_codepoint=126,
                                           blacklist_characters="'\\"),
                    max_size=40))
def test_string_round_trip_through_vm(text):
    vm = LuaVM()
    vm.register("echo", lambda s: s)
    vm.run("out = echo('%s')" % text)
    assert vm.get_global("out") == text
    vm.run("n = string.len('%s')" % text)
    assert vm.get_global("n") == len(text)


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                      max_size=10))
def test_host_bridge_list_round_trip(items):
    vm = LuaVM()
    vm.register("provide", lambda: list(items))
    vm.run("""
    got = provide()
    count = #got
    """)
    assert vm.get_global("count") == len(items)
    assert vm.get_global("got") == (list(items) if items else {}) or items == []


# --- generated programs -----------------------------------------------------
#
# The generator writes source text over a fixed vocabulary declared by a
# prelude, so every name reference is to an already-bound variable.
# Hypothesis supplies a seed; a plain ``random.Random`` expands it into
# a program.  Deeply recursive hypothesis strategies proved ~1000x
# slower to draw from than this; on failure the assert prints the whole
# offending program.

_NUM_NAMES = ("a", "b", "c")
_STR_NAMES = ("s1", "s2")

_PRELUDE = """
local a = 3
local b = -2
local c = 10
local s1 = 'alpha'
local s2 = 'x'
local t = {}
local function f1(x, y)
  return x * 2 + y
end
local function mk(x)
  return function(n) return x + n end
end
local cl = mk(7)
g1 = 0
g2 = ''
"""


class _ProgramBuilder:
    """Expand one PRNG seed into a well-formed Lua-subset program."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def num_expr(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return rng.choice([
                str(rng.randint(-9, 9)),
                rng.choice(_NUM_NAMES),
                "g1", "#t", "#s1",
            ])
        kind = rng.randrange(7)
        if kind == 0:
            return "(%s %s %s)" % (self.num_expr(depth - 1),
                                   rng.choice(["+", "-", "*"]),
                                   self.num_expr(depth - 1))
        if kind == 1:
            # Non-zero literal denominators keep division type-sound
            # without making it rare.
            return "(%s %s %d)" % (self.num_expr(depth - 1),
                                   rng.choice(["/", "%"]),
                                   rng.randint(1, 7))
        if kind == 2:
            # The space matters: "--8" would lex as a comment.
            return "(- %s)" % self.num_expr(depth - 1)
        if kind == 3:
            return "f1(%s, %s)" % (self.num_expr(depth - 1),
                                   self.num_expr(depth - 1))
        if kind == 4:
            return "cl(%s)" % self.num_expr(depth - 1)
        if kind == 5:
            return "probe(%s)" % self.num_expr(depth - 1)
        return "((t[1] == nil and %s) or %s)" % (self.num_expr(depth - 1),
                                                 self.num_expr(depth - 1))

    def str_expr(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return rng.choice(["'lit'", "''", "'0'", "g2"]
                              + list(_STR_NAMES))
        kind = rng.randrange(4)
        if kind == 0:
            return "(%s .. %s)" % (self.str_expr(depth - 1),
                                   self.str_expr(depth - 1))
        if kind == 1:
            return "(%s .. %s)" % (self.str_expr(depth - 1),
                                   self.num_expr(depth - 1))
        if kind == 2:
            return "tostring(%s)" % self.num_expr(depth - 1)
        return "string.upper(%s)" % self.str_expr(depth - 1)

    def bool_expr(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            kind = rng.randrange(3)
            if kind == 0:
                return "(%s %s %s)" % (
                    self.num_expr(1),
                    rng.choice(["<", "<=", ">", ">=", "==", "~="]),
                    self.num_expr(1))
            if kind == 1:
                return "(%s %s %s)" % (self.str_expr(1),
                                       rng.choice(["<", "==", "~="]),
                                       self.str_expr(1))
            return "(t[2] == nil)"
        kind = rng.randrange(2)
        if kind == 0:
            return "(%s %s %s)" % (self.bool_expr(depth - 1),
                                   rng.choice(["and", "or"]),
                                   self.bool_expr(depth - 1))
        return "(not %s)" % self.bool_expr(depth - 1)

    def statement(self, depth, in_loop):
        rng = self.rng
        kinds = list(range(10))
        if in_loop:
            kinds += [10, 11]
        if depth > 0:
            kinds += [12, 13, 14, 15]
        kind = rng.choice(kinds)
        if kind == 0:
            return "%s = %s" % (rng.choice(_NUM_NAMES), self.num_expr(2))
        if kind == 1:
            return "%s = %s" % (rng.choice(_STR_NAMES), self.str_expr(2))
        if kind == 2:
            return "g1 = %s" % self.num_expr(2)
        if kind == 3:
            return "g2 = %s" % self.str_expr(2)
        if kind == 4:
            return "local %s = %s" % (rng.choice(_NUM_NAMES),
                                      self.num_expr(2))
        if kind == 5:
            return "t[%d] = %s" % (rng.randint(1, 4), self.num_expr(2))
        if kind == 6:
            return "t.%s = %s" % (rng.choice(["x", "y"]), self.str_expr(2))
        if kind == 7:
            return "probe(%s)" % self.num_expr(2)
        if kind == 8:
            return "print(%s)" % self.num_expr(2)
        if kind == 9:
            return "print(%s)" % self.str_expr(2)
        if kind == 10:
            return "if a > 99 then break end"
        if kind == 11:
            return "break"
        if kind == 12:
            body = self.block(depth - 1, in_loop)
            if rng.random() < 0.5:
                return "if %s then\n%s\nend" % (self.bool_expr(2), body)
            return "if %s then\n%s\nelse\n%s\nend" % (
                self.bool_expr(2), body, self.block(depth - 1, in_loop))
        if kind == 13:
            return "for i%d = 1, %d do\n%s\nend" % (
                rng.randint(1, 4), rng.randint(1, 4),
                self.block(depth - 1, True))
        if kind == 14:
            return "for i%d = %d, 1, -1 do\n%s\nend" % (
                rng.randint(3, 6), rng.randint(2, 3),
                self.block(depth - 1, True))
        # ``w`` is reserved for while guards and never assigned by other
        # generated statements; ``local`` makes each loop own its
        # counter (a nested while shadows rather than reusing it, which
        # with break could otherwise leave the outer guard reinflated
        # and the loop non-terminating).
        return "local w = %d\nwhile w > 0 do\nw = w - 1\n%s\nend" % (
            rng.randint(1, 4), self.block(depth - 1, True))

    def block(self, depth, in_loop):
        statements = []
        for _ in range(self.rng.randint(1, 4)):
            statement = self.statement(depth, in_loop)
            statements.append(statement)
            if statement == "break":
                break  # the parser treats a bare break as a terminator
        return "\n".join(statements)

    def program(self):
        rng = self.rng
        body = [self.statement(2, False) for _ in range(rng.randint(1, 8))]
        kind = rng.randrange(4)
        if kind == 0:
            body.append("return %s" % self.num_expr(2))
        elif kind == 1:
            body.append("return %s" % self.str_expr(2))
        elif kind == 2:
            body.append("return t[1]")
        return _PRELUDE + "\n".join(body)


def lua_programs():
    return st.integers(min_value=0, max_value=2 ** 48).map(
        lambda seed: _ProgramBuilder(seed).program())


_OBSERVED_GLOBALS = ("g1", "g2", "w")


def _observe(source):
    """Run ``source`` on a fresh VM and capture every observable channel.

    Anything but a clean return or a LuaError propagates and fails the
    property.
    """
    vm = LuaVM()
    probes = []
    vm.register("probe", lambda x: probes.append(x) or x)
    try:
        result, error = vm.run(source), None
    except LuaError as exc:
        result, error = None, (type(exc).__name__, str(exc))
    return {
        "result": result,
        "error": error,
        "globals": {name: vm.get_global(name) for name in _OBSERVED_GLOBALS},
        "output": list(vm.output),
        "probes": probes,
    }


@settings(max_examples=150, deadline=None)
@given(source=lua_programs())
def test_generated_programs_are_typed_and_deterministic(source):
    """Every generated program returns or raises LuaError, and two fresh
    VMs agree on its result, error, globals, output and probe calls."""
    assert _observe(source) == _observe(source), \
        "nondeterminism on program:\n%s" % source
