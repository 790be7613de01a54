"""Every function the C sources export is one the package binds, with the C definition's types.

A small parse of ``_onepass.c`` and ``_simplex.c`` in place of ``nm`` on a
build.  A function definition starts at column 0, as the sources write them;
one not marked ``static`` is exported from the library, and each exported
name must be one that ``native._Library`` reads off the loaded library, as
each name it reads must be exported.  The ``argtypes`` and ``restype`` it
sets must match the definition's parameter list and return type, read off a
``_Library`` built on a stubbed ``ctypes.CDLL``, so that no compiler is
needed: a stale ``argtypes`` would silently shift every later argument.
"""
import ast
import ctypes
import inspect
import re
from pathlib import Path

from onlinelp import native

COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
# a definition: at column 0, the return type and name, the parameters, then the body's brace
DEFINITION = re.compile(r"^(?P<head>[A-Za-z_][\w \t*]*?)\b(?P<name>\w+)\s*"
                        r"\((?P<parameters>[^;{}()]*)\)\s*\{", re.M)
# a C value type -> the ctypes type that passes it; any pointer passes as c_void_p
CTYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}


def exported_functions(source: str):
    """The names of the functions ``source`` defines without ``static``, in order."""
    code = COMMENT.sub(" ", source)
    return [match["name"] for match in DEFINITION.finditer(code)
            if "static" not in match["head"].split()]


def c_type(declaration: str):
    """The ctypes type of a return type or a parameter declaration, with or without its name."""
    if "*" in declaration:
        return ctypes.c_void_p
    words = [word for word in declaration.split() if word not in ("static", "inline", "const")]
    return CTYPES[words[0]]


def exported_signatures(source: str):
    """``{name: (restype, argtypes)}`` of the functions ``source`` exports, as ctypes types."""
    code = COMMENT.sub(" ", source)
    signatures = {}
    for match in DEFINITION.finditer(code):
        if "static" in match["head"].split():
            continue
        parameters = [p for p in match["parameters"].split(",") if p.strip() not in ("", "void")]
        signatures[match["name"]] = (c_type(match["head"]), [c_type(p) for p in parameters])
    return signatures


class StubFunction:
    """A symbol of :class:`StubLibrary`: it records the types the binding sets."""

    def __init__(self, name):
        self.name, self.restype, self.argtypes = name, "unset", "unset"


class StubLibrary:
    """Stands in for ``ctypes.CDLL``: every symbol exists and records its types."""

    def __init__(self, path):
        self.path = path

    def __getattr__(self, name):
        function = StubFunction(name)
        setattr(self, name, function)
        return function


def bound_signatures(library_class, monkeypatch):
    """``{name: (restype, argtypes)}`` as ``library_class`` sets them on a stubbed library."""
    monkeypatch.setattr(ctypes, "CDLL", StubLibrary)
    library = library_class(Path("stub.so"))
    return {f.name: (f.restype, f.argtypes) for f in vars(library).values()
            if isinstance(f, StubFunction)}


def bound_symbols(source: str):
    """The names the Python ``source`` reads as attributes of a name ``lib``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lib"}


def test_the_sources_export_exactly_what_the_library_binds():
    exported = [name for path in native.SOURCES
                for name in exported_functions(path.read_text(encoding="utf-8"))]
    assert len(exported) == len(set(exported))
    assert set(exported) == bound_symbols(inspect.getsource(native._Library))


def test_the_guard_finds_the_exported_definitions():
    source = "\n".join((
        "#include <stdint.h>",
        "enum { OK, FAILED };",
        "/* int64_t commented(int64_t n) { return n; } */",
        "static int helper(int64_t m, double *x)",
        "{",
        "    for (int64_t i = 0; i < m; i++) {",
        "        x[i] = 0.0;",
        "    }",
        "    return OK;",
        "}",
        "int64_t declared(int64_t n);",
        "static inline double twice(double x) { return 2.0 * x; }",
        "int64_t entry(int64_t cells, const double *A,",
        "              uint8_t *flags)",
        "{",
        "    return helper(cells, (double *)A);",
        "}",
        "void *other_entry(void) { return 0; }",
    ))
    assert exported_functions(source) == ["entry", "other_entry"]
    assert bound_symbols("class L:\n    def __init__(self, lib):\n"
                         "        self.f = lib.entry\n        self.g = lib.other_entry\n"
                         "        self.g.restype = None\n") == {"entry", "other_entry"}


def test_the_binding_declares_each_export_s_c_types(monkeypatch):
    exported = {}
    for path in native.SOURCES:
        exported.update(exported_signatures(path.read_text(encoding="utf-8")))
    assert bound_signatures(native._Library, monkeypatch) == exported


def test_the_signature_guard_reads_the_c_types(monkeypatch):
    source = "\n".join((
        "static int helper(int64_t m, double *x) { return 0; }",
        "/* void commented(double x) { } */",
        "int64_t entry(int64_t cells, const double *const *A, double tol,",
        "              uint8_t *flags)",
        "{",
        "    return cells;",
        "}",
        "void *other_entry(void) { return 0; }",
        "void last(double x, int64_t n) { }",
    ))
    exported = exported_signatures(source)
    assert exported == {
        "entry": (ctypes.c_int64, [ctypes.c_int64, ctypes.c_void_p, ctypes.c_double,
                                   ctypes.c_void_p]),
        "other_entry": (ctypes.c_void_p, []),
        "last": (None, [ctypes.c_double, ctypes.c_int64]),
    }

    class Library:
        def __init__(self, path):
            lib = ctypes.CDLL(str(path))
            self.entry = lib.entry
            self.entry.restype = ctypes.c_int64
            self.entry.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 2 + [ctypes.c_double]
            self.other = lib.other_entry
            self.other.restype = ctypes.c_void_p
            self.other.argtypes = []
            self.last = lib.last
            self.last.argtypes = [ctypes.c_double, ctypes.c_int64]

    bound = bound_signatures(Library, monkeypatch)
    # entry's third and fourth types are swapped, and last's restype is never set
    assert bound["other_entry"] == exported["other_entry"]
    assert bound["entry"] != exported["entry"] and bound["last"] != exported["last"]
    assert bound["last"] == ("unset", exported["last"][1])
