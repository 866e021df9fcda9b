"""Guards that keep the README's config reference in step with the code.

Every name the "Field expressions support" paragraph lists must parse, and
the "Optional config keys" paragraph must list exactly the optional keys
that `cli.load_config` reads (found by scanning cli.py with `ast`).  The keys
the loader accepts, `cli.KNOWN_KEYS`, are the keys it reads and the retired
`lin_tol`.
"""

import ast
import re
from pathlib import Path

import fracpot.cli
from fracpot.expressions import ExprError, parse_field_expr

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_spans(opening: str) -> list[str]:
    """Backticked spans of the README paragraph that starts with `opening`."""
    (paragraph,) = [p for p in README.read_text().split("\n\n") if p.startswith(opening)]
    return re.findall(r"`([^`]+)`", paragraph)


def parses(source: str) -> bool:
    try:
        parse_field_expr(source)
    except ExprError:
        return False
    return True


def test_every_listed_expression_name_parses():
    checked = []
    for span in readme_spans("Field expressions support"):
        call = re.fullmatch(r"(\w+)\((.*)\)", span)
        if call:  # a call such as chi(a, b, x): the name with as many arguments
            arity = call.group(2).count(",") + 1
            checked.append((span, parses(f"{call.group(1)}({', '.join(['x'] * arity)})")))
            continue
        for token in span.split():
            if token.isidentifier():  # a constant, a variable or a one-argument function
                checked.append((token, parses(token) or parses(f"{token}(x)")))
            else:  # an operator
                checked.append((token, parses(f"x{token}x")))
    assert len(checked) >= 12
    assert [name for name, ok in checked if not ok] == []


def dotted(level: str, key: str) -> str:
    return key if level == "config" else f"{level}.{key}"


def optional_keys_read_by_the_loader() -> set:
    keys = set()
    for node in ast.walk(ast.parse(Path(fracpot.cli.__file__).read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get":
            owner = getattr(func.value, "id", None)
            if owner == "raw":
                keys.add(node.args[0].value)
            elif owner == "domain":
                keys.add(f"domain.{node.args[0].value}")
        elif isinstance(func, ast.Name) and func.id == "_optional_expr":
            keys.add(f"fields.{node.args[1].value}")
    return keys


def test_optional_config_keys_match_the_loader():
    documented = readme_spans("Optional config keys:")
    assert len(documented) == len(set(documented))
    assert set(documented) == optional_keys_read_by_the_loader()


def required_keys_read_by_the_loader() -> set:
    keys = set()
    for node in ast.walk(ast.parse(Path(fracpot.cli.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "_require",
            "_parse_expr",
        ):
            owner, key = node.args[0], node.args[1]
            if isinstance(key, ast.Constant) and owner.id in ("raw", "domain", "fields"):
                keys.add(dotted("config" if owner.id == "raw" else owner.id, key.value))
    return keys


def test_the_known_keys_are_the_keys_the_loader_reads():
    known = {dotted(level, key) for level, keys in fracpot.cli.KNOWN_KEYS.items() for key in keys}
    read = required_keys_read_by_the_loader() | optional_keys_read_by_the_loader()
    assert known == read | {"lin_tol"}
