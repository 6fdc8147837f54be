"""Tree-walking evaluator for the Lua subset.

This module is also the *semantic specification* of the subset.  The
load-bearing rules, pinned by regression tests in
``tests/test_luavm_interpreter.py``:

**Table length / border semantics.**  ``#t`` is the length of the
contiguous integer-key prefix starting at 1: the first missing index is
the border, and anything beyond a nil hole is not part of the array
part (``{1, nil, 3}`` has length 1).  Storing ``nil`` *removes* the
key — a table never holds a nil value, however it was built, so the
border is well defined.  Host-constructed tables follow the same rule:
:class:`LuaTable`'s constructor routes through :meth:`LuaTable.set`, so
float keys normalise (``1.0`` is ``1``) and ``None`` values become
holes instead of phantom entries that would inflate ``#t``.

**Coercion in ``..`` versus comparison operators.**  Concatenation
coerces *numbers only*: ``"v" .. 2`` is ``"v2"`` (integral floats drop
the ``.0``), while nil, booleans, tables, and functions raise
``attempt to concatenate a <type> value``.  Order comparisons
(``< <= > >=``) coerce *nothing*: both operands must be numbers, or
both strings (bytewise order); any other pairing — including booleans,
which Python would happily order as integers — raises ``cannot
compare X with Y``.  Equality (``== ~=``) never coerces across types:
booleans are only equal to booleans (``1 == true`` is ``false``, not
Python's ``True``), numbers compare by value (``1 == 1.0``), and
tables compare by identity.

**Call depth.**  Lua-level call nesting is capped at
:data:`LuaVM.MAX_CALL_DEPTH`; overflow raises :class:`LuaRuntimeError`
instead of exhausting the Python stack.

**Error messages name Lua types.**  Every script-visible message that
mentions a value's type (``attempt to index a nil value``, ``cannot
compare number with string``) goes through :func:`_lua_type_name`, so
scripts never see Python type names.

The helpers :func:`lua_eq`, :func:`lua_compare`, and
:func:`lua_concat` implement the coercion rules once.
"""

from repro.luavm.errors import LuaRuntimeError
from repro.luavm.parser import parse


class LuaTable:
    """Lua's one data structure: a hash map with an array part.

    Integer keys starting at 1 form the array part; ``#t`` is the length
    of the contiguous prefix, and :func:`ipairs`-style iteration walks it.
    """

    def __init__(self, items=None):
        self._data = {}
        if items:
            for key, value in items.items():
                # Through set(): normalise keys and drop None values, so
                # host-built tables obey the same border semantics as
                # script-built ones (a None value is a hole, not an
                # entry that #t would count).
                self.set(key, value)

    def get(self, key):
        return self._data.get(_normalize_key(key))

    def set(self, key, value):
        key = _normalize_key(key)
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def length(self):
        """``#t``: the border of the array part.

        The contiguous integer-key prefix from 1; the first missing
        index ends it, so keys beyond a nil hole never count (see the
        module docstring for the pinned border semantics).
        """
        n = 0
        while (n + 1) in self._data:
            n += 1
        return n

    def array_items(self):
        """Values at 1..#t in order."""
        return [self._data[i] for i in range(1, self.length() + 1)]

    def keys(self):
        return list(self._data.keys())

    def to_dict(self):
        """Shallow python-dict view (for host-side inspection)."""
        return dict(self._data)

    def __repr__(self):
        return "LuaTable(%d entries)" % len(self._data)


def _normalize_key(key):
    # Lua treats 1.0 and 1 as the same key.
    if isinstance(key, float) and key.is_integer():
        return int(key)
    return key


class LuaFunction:
    """A closure: parameter names, body, and defining environment."""

    __slots__ = ("params", "body", "env", "name")

    def __init__(self, params, body, env, name="?"):
        self.params = params
        self.body = body
        self.env = env
        self.name = name

    def __repr__(self):
        return "LuaFunction(%s)" % self.name


class _Env:
    """Lexical scope chain."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars = {}
        self.parent = parent

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def assign(self, name, value):
        """Set an existing binding, else create a global."""
        scope = self
        while scope is not None:
            if name in scope.vars:
                scope.vars[name] = value
                return
            if scope.parent is None:
                scope.vars[name] = value  # new global
                return
            scope = scope.parent

    def declare(self, name, value):
        self.vars[name] = value


class _Break(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _truthy(value):
    # Lua truth: only nil and false are false.
    return value is not None and value is not False


def _lua_type_name(value):
    """The type name scripts see (used in error messages)."""
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, LuaTable):
        return "table"
    return "function"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def lua_eq(left, right):
    """``==`` per the module-docstring spec: no cross-type coercion.

    Booleans only equal booleans (Python would treat ``1 == True`` as
    true); numbers compare by value; tables by identity (LuaTable has
    no ``__eq__``, so ``==`` falls back to ``is``).
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    return left == right


def lua_compare(op, left, right):
    """``< <= > >=`` per the spec: numbers with numbers, strings with
    strings, nothing else — booleans are *not* numbers here even though
    Python orders them as integers."""
    if (_is_number(left) and _is_number(right)) or \
            (isinstance(left, str) and isinstance(right, str)):
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    raise LuaRuntimeError("cannot compare %s with %s"
                          % (_lua_type_name(left), _lua_type_name(right)))


def lua_concat(left, right):
    """``..`` per the spec: strings and numbers only; integral floats
    render without the ``.0``."""
    for value in (left, right):
        if not isinstance(value, str) and not _is_number(value):
            raise LuaRuntimeError("attempt to concatenate a %s value"
                                  % _lua_type_name(value))
    return _lua_str(left) + _lua_str(right)


def _guard_stdlib(name, function):
    """Wrap a stdlib function so a bad argument raises LuaRuntimeError.

    The stdlib is plain Python, so ``string.rep(nil, 2)`` would
    otherwise leak a TypeError out of the VM.  Host callables added
    with :meth:`LuaVM.register` are not wrapped: their exceptions are
    the host's to handle.
    """

    def guarded(*args):
        try:
            return function(*args)
        except (TypeError, ValueError, AttributeError, ArithmeticError):
            raise LuaRuntimeError(
                "bad argument to '%s' (called with %s)"
                % (name, ", ".join(_lua_type_name(a) for a in args)
                   or "no values")) from None

    guarded.__name__ = "lua_stdlib_%s" % name
    return guarded


class LuaVM:
    """One interpreter instance with its own global environment.

    Usage::

        vm = LuaVM()
        vm.register("host_list_files", lambda ext: [...])
        vm.run(script_source)
        result = vm.call("collect", "docx")
    """

    DEFAULT_BUDGET = 2_000_000

    #: Maximum Lua-level call nesting (see module docstring): deeper
    #: recursion raises LuaRuntimeError instead of exhausting the
    #: Python stack.
    MAX_CALL_DEPTH = 200

    def __init__(self, instruction_budget=DEFAULT_BUDGET):
        self._globals = _Env()
        self._budget = instruction_budget
        self._steps = 0
        self._depth = 0
        #: Lines produced by the script's print().
        self.output = []
        self._install_stdlib()

    # -- public API -------------------------------------------------------------

    def register(self, name, function):
        """Expose a python callable to scripts as a global function.

        Arguments cross the boundary as plain python values (tables
        become lists/dicts) and the return value is converted back, so
        host APIs never see VM internals.
        """

        def bridge(*args):
            return _to_lua(function(*[_from_lua(a) for a in args]))

        bridge.__name__ = "lua_bridge_%s" % name
        self._globals.declare(name, bridge)

    def get_global(self, name):
        return _from_lua(self._globals.lookup(name))

    def run(self, source):
        """Parse and execute a chunk in the global environment."""
        block = parse(source)
        self._steps = 0
        try:
            self._exec_block(block, self._globals)
        except _Return as ret:
            return _from_lua(ret.value)
        return None

    def call(self, name, *args):
        """Call a global function defined by previously run chunks."""
        function = self._globals.lookup(name)
        if function is None:
            raise LuaRuntimeError("attempt to call undefined function %r" % name)
        self._steps = 0
        return _from_lua(self._call_value(function, [_to_lua(a) for a in args]))

    def has_function(self, name):
        value = self._globals.lookup(name)
        return isinstance(value, LuaFunction) or callable(value)

    # -- stdlib -------------------------------------------------------------------

    def _install_stdlib(self):
        """Install the stdlib, each function behind :func:`_guard_stdlib`
        (library tables' members too, named ``string.rep`` etc.)."""
        from repro.luavm.stdlib import build_stdlib

        for name, value in build_stdlib(self).items():
            if isinstance(value, LuaTable):
                for key in value.keys():
                    member = value.get(key)
                    if callable(member):
                        value.set(key, _guard_stdlib("%s.%s" % (name, key),
                                                     member))
            elif callable(value):
                value = _guard_stdlib(name, value)
            self._globals.declare(name, value)

    # -- execution ------------------------------------------------------------------

    def _tick(self):
        self._steps += 1
        if self._steps > self._budget:
            raise LuaRuntimeError(
                "instruction budget exhausted (%d steps)" % self._budget
            )

    def _exec_block(self, block, env):
        for statement in block:
            self._exec_statement(statement, env)

    def _exec_statement(self, node, env):
        self._tick()
        tag = node[0]
        if tag == "local":
            _, name, expr = node
            env.declare(name, self._eval(expr, env) if expr is not None else None)
        elif tag == "assign":
            _, target, expr = node
            value = self._eval(expr, env)
            if target[0] == "name":
                env.assign(target[1], value)
            else:
                obj = self._eval(target[1], env)
                key = self._eval(target[2], env)
                if not isinstance(obj, LuaTable):
                    raise LuaRuntimeError("attempt to index a non-table value")
                obj.set(key, value)
        elif tag == "call_stmt":
            self._eval(node[1], env)
        elif tag == "function":
            _, path, params, body = node
            function = LuaFunction(params, body, env, name=".".join(path))
            if len(path) == 1:
                env.assign(path[0], function)
            else:
                obj = env.lookup(path[0])
                for part in path[1:-1]:
                    obj = obj.get(part)
                if not isinstance(obj, LuaTable):
                    raise LuaRuntimeError(
                        "cannot define method on non-table %r" % path[0]
                    )
                obj.set(path[-1], function)
        elif tag == "local_function":
            _, name, params, body = node
            env.declare(name, None)
            env.vars[name] = LuaFunction(params, body, env, name=name)
        elif tag == "if":
            _, arms, else_block = node
            for cond, block in arms:
                if _truthy(self._eval(cond, env)):
                    self._exec_block(block, _Env(env))
                    return
            if else_block is not None:
                self._exec_block(else_block, _Env(env))
        elif tag == "while":
            _, cond, block = node
            while _truthy(self._eval(cond, env)):
                self._tick()
                try:
                    self._exec_block(block, _Env(env))
                except _Break:
                    break
        elif tag == "fornum":
            _, var, start_e, stop_e, step_e, block = node
            start = self._eval_number(start_e, env)
            stop = self._eval_number(stop_e, env)
            step = self._eval_number(step_e, env) if step_e is not None else 1
            if step == 0:
                raise LuaRuntimeError("'for' step is zero")
            value = start
            while (step > 0 and value <= stop) or (step < 0 and value >= stop):
                self._tick()
                scope = _Env(env)
                scope.declare(var, value)
                try:
                    self._exec_block(block, scope)
                except _Break:
                    break
                value += step
        elif tag == "return":
            raise _Return(self._eval(node[1], env) if node[1] is not None else None)
        elif tag == "break":
            raise _Break()
        else:
            raise LuaRuntimeError("unknown statement tag %r" % tag)

    def _eval_number(self, node, env):
        value = self._eval(node, env)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LuaRuntimeError("numeric expression expected")
        return value

    def _eval(self, node, env):
        self._tick()
        tag = node[0]
        if tag == "number" or tag == "string":
            return node[1]
        if tag == "nil":
            return None
        if tag == "true":
            return True
        if tag == "false":
            return False
        if tag == "name":
            return env.lookup(node[1])
        if tag == "index":
            obj = self._eval(node[1], env)
            key = self._eval(node[2], env)
            if isinstance(obj, LuaTable):
                return obj.get(key)
            raise LuaRuntimeError("attempt to index a %s value"
                                  % _lua_type_name(obj))
        if tag == "call":
            function = self._eval(node[1], env)
            args = [self._eval(a, env) for a in node[2]]
            return self._call_value(function, args)
        if tag == "method":
            obj = self._eval(node[1], env)
            if not isinstance(obj, LuaTable):
                raise LuaRuntimeError("attempt to call method on non-table")
            function = obj.get(node[2])
            args = [obj] + [self._eval(a, env) for a in node[3]]
            return self._call_value(function, args)
        if tag == "binop":
            return self._binop(node[1], node[2], node[3], env)
        if tag == "unop":
            return self._unop(node[1], node[2], env)
        if tag == "function_expr":
            return LuaFunction(node[1], node[2], env, name="<anonymous>")
        if tag == "table":
            table = LuaTable()
            index = 1
            for key_node, value_node in node[1]:
                value = self._eval(value_node, env)
                if key_node is None:
                    table.set(index, value)
                    index += 1
                else:
                    table.set(self._eval(key_node, env), value)
            return table
        raise LuaRuntimeError("unknown expression tag %r" % tag)

    def _call_value(self, function, args):
        if isinstance(function, LuaFunction):
            if self._depth >= self.MAX_CALL_DEPTH:
                raise LuaRuntimeError(
                    "call stack overflow (depth %d)" % self.MAX_CALL_DEPTH
                )
            scope = _Env(function.env)
            for i, param in enumerate(function.params):
                scope.declare(param, args[i] if i < len(args) else None)
            self._depth += 1
            try:
                self._exec_block(function.body, scope)
            except _Return as ret:
                return ret.value
            finally:
                self._depth -= 1
            return None
        if callable(function):
            # Stdlib and bridged host functions receive VM values as-is;
            # vm.register wraps host callables with the conversion layer.
            return _to_lua(function(*args))
        raise LuaRuntimeError("attempt to call a %s value"
                              % _lua_type_name(function))

    def _binop(self, op, left_node, right_node, env):
        if op == "and":
            left = self._eval(left_node, env)
            return self._eval(right_node, env) if _truthy(left) else left
        if op == "or":
            left = self._eval(left_node, env)
            return left if _truthy(left) else self._eval(right_node, env)
        left = self._eval(left_node, env)
        right = self._eval(right_node, env)
        if op == "..":
            return lua_concat(left, right)
        if op == "==":
            return lua_eq(left, right)
        if op == "~=":
            return not lua_eq(left, right)
        if op in ("<", "<=", ">", ">="):
            return lua_compare(op, left, right)
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)) \
                or isinstance(left, bool) or isinstance(right, bool):
            raise LuaRuntimeError("arithmetic on non-number")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise LuaRuntimeError("division by zero")
            result = left / right
            return result
        if op == "%":
            if right == 0:
                raise LuaRuntimeError("modulo by zero")
            return left % right
        raise LuaRuntimeError("unknown operator %r" % op)

    def _unop(self, op, operand_node, env):
        value = self._eval(operand_node, env)
        if op == "not":
            return not _truthy(value)
        if op == "-":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise LuaRuntimeError("arithmetic on non-number")
            return -value
        if op == "#":
            if isinstance(value, str):
                return len(value)
            if isinstance(value, LuaTable):
                return value.length()
            raise LuaRuntimeError("attempt to get length of a %s value"
                                  % _lua_type_name(value))
        raise LuaRuntimeError("unknown unary operator %r" % op)


def _lua_str(value):
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _to_lua(value):
    """Convert a python value crossing into the VM."""
    if isinstance(value, (list, tuple)):
        table = LuaTable()
        for i, item in enumerate(value, start=1):
            table.set(i, _to_lua(item))
        return table
    if isinstance(value, dict):
        table = LuaTable()
        for key, item in value.items():
            table.set(key, _to_lua(item))
        return table
    return value


def _from_lua(value):
    """Convert a VM value crossing back into python.

    Tables become lists when they are pure arrays, dicts otherwise.
    """
    if isinstance(value, LuaTable):
        length = value.length()
        if length and length == len(value.keys()):
            return [_from_lua(v) for v in value.array_items()]
        return {k: _from_lua(v) for k, v in value.to_dict().items()}
    return value
