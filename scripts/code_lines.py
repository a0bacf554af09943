#!/usr/bin/env python3
"""Count the code lines of each moranspec module and their total.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function); blank
lines do not count.  One row per module of src/moranspec, then the total.

With --unreached, one row per definition (a module-level function or class,
or a method) that nothing in cli.py reaches, with its code lines, then their
total.  Reach is a name walk over the AST: every definition in cli.py and
every module's top-level statements (run on import) are reached, and a
reached definition reaches what it mentions.  A bare name reaches the
module-level definitions of that name in any module; an attribute x.name
reaches every method of that name, and the module-level definition name of
module x when x names a moranspec module.  A local or parameter is never an
attribute, so it reaches no method.  The walk still over-counts what is
reached: it does not resolve which object an attribute is read from.  A
class's dunder methods are reached with it.  A definition's lines leave out
the methods it holds, which have rows of their own.

Usage:
    python3 scripts/code_lines.py [--unreached]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "moranspec"

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_line_set(source: str) -> set[int]:
    """The line numbers of source that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(ast.parse(source))


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    return len(code_line_set(source))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def span(node: ast.AST) -> set[int]:
    """The lines of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return set(range(first, node.end_lineno + 1))


def mentioned(nodes, modules: set[str]) -> set[str]:
    """The reach keys of every name and attribute under nodes.

    A bare name is the key name, an attribute .name, and an attribute of a
    module of modules also module.name.
    """
    keys: set[str] = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name):
            keys.add(n.id)
        elif isinstance(n, ast.Attribute):
            keys.add(f".{n.attr}")
            if isinstance(n.value, ast.Name) and n.value.id in modules:
                keys.add(f"{n.value.id}.{n.attr}")
    return keys


def definitions(module: str, source: str):
    """(module.qualname, the keys that reach it, its own nodes, its code lines) per definition.

    A module-level definition is reached by its bare name or module.name, a
    method by .name, and a dunder method by its class's keys.  A class's own
    nodes are all but its methods.
    """
    tree, lines = ast.parse(source), code_line_set(source)
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        methods = [m for m in node.body if isinstance(m, DEFS)] if isinstance(
            node, ast.ClassDef) else []
        own = ([node] if not methods
               else [*node.decorator_list, *node.bases, *(n for n in node.body if n not in methods)])
        keys = {node.name, f"{module}.{node.name}"}
        yield (f"{module}.{node.name}", keys, own,
               len(lines & span(node).difference(*map(span, methods))))
        for m in methods:
            dunder = m.name.startswith("__") and m.name.endswith("__")
            yield (f"{module}.{node.name}.{m.name}", keys if dunder else {f".{m.name}"}, [m],
                   len(lines & span(m)))


def unreached() -> list[tuple[str, int]]:
    """(module.qualname, code lines) of each definition that cli.py does not reach."""
    paths = sorted(SRC.glob("*.py"))
    modules = {path.stem for path in paths}
    defs, names = [], set()
    for path in paths:
        source = path.read_text(encoding="utf-8")
        names |= mentioned((n for n in ast.parse(source).body if not isinstance(n, DEFS)), modules)
        defs += definitions(path.stem, source)
    reached = {key for key, *_ in defs if key.startswith("cli.")}
    names |= mentioned((n for key, _, own, _ in defs if key in reached for n in own), modules)
    grew = True
    while grew:
        grew = False
        for key, keys, own, _ in defs:
            if key not in reached and keys & names:
                reached.add(key)
                names |= mentioned(own, modules)
                grew = True
    return [(key, count) for key, _, _, count in defs if key not in reached]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--unreached", action="store_true",
                        help="list the definitions that cli.py does not reach")
    if parser.parse_args().unreached:
        rows = unreached()
        for key, count in rows:
            print(f"{key} {count}")
        print(f"total {sum(count for _, count in rows)}")
        return
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
