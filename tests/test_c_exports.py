"""Every function the C sources export is one the package binds: an orphaned entry point fails here.

A small parse of ``_onepass.c`` and ``_simplex.c`` in place of ``nm`` on a
build.  A function definition starts at column 0, as the sources write them;
one not marked ``static`` is exported from the library, and each exported
name must be one that ``native._Library`` reads off the loaded library, as
each name it reads must be exported.
"""
import ast
import inspect
import re

from onlinelp import native

COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
# a definition: at column 0, the return type and name, the parameters, then the body's brace
DEFINITION = re.compile(r"^(?P<head>[A-Za-z_][\w \t*]*?)\b(?P<name>\w+)\s*\([^;{}()]*\)\s*\{",
                        re.M)


def exported_functions(source: str):
    """The names of the functions ``source`` defines without ``static``, in order."""
    code = COMMENT.sub(" ", source)
    return [match["name"] for match in DEFINITION.finditer(code)
            if "static" not in match["head"].split()]


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
