"""Guards that keep the README's config reference in step with the code.

Every name the "Field expressions support" paragraph lists must parse, and
the config paragraphs must name the keys of `cli.CONFIG_KEYS`, the one table
of config keys: "Optional config keys" lists exactly the keys with a default,
and "Whole-number keys" exactly those the table reads as integers.
"""

import re
from pathlib import Path

from fracpot.cli import CONFIG_KEYS, REQUIRED, _integer
from fracpot.expressions import ExprError, parse_field_expr

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_spans(opening: str, end: str = "\n\n") -> list[str]:
    """Backticked spans of the README paragraph that starts with `opening`, up
    to the first `end` in it."""
    (paragraph,) = [p for p in README.read_text().split("\n\n") if p.startswith(opening)]
    return re.findall(r"`([^`]+)`", paragraph.split(end)[0])


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


def table_keys(select) -> set:
    """The dotted names of the CONFIG_KEYS entries that `select(parse, default)` picks."""
    return {
        key if level == "config" else f"{level}.{key}"
        for level, table in CONFIG_KEYS.items()
        for key, (parse, default) in table.items()
        if select(parse, default)
    }


def test_optional_config_keys_match_the_loader():
    documented = readme_spans("Optional config keys:")
    assert len(documented) == len(set(documented))
    optional = table_keys(lambda parse, default: default is not REQUIRED)
    assert set(documented) == optional


def test_whole_number_keys_match_the_table():
    documented = readme_spans("Whole-number keys", end=")")
    assert set(documented) == table_keys(lambda parse, default: parse is _integer)
