"""Each module stays below CPython's 8,192-token parser step.

CPython's parser doubles its token array at 8,192 tokens and allocates a
Token struct for every new slot, so a module that crosses it adds about
0.5 MB to the compile peak of every import from source.  The count is the
parser's: `tokenize` tokens less comments and blank-line NL tokens.
"""

import tokenize
from pathlib import Path

import pytest

import ssdkit

MODULES = sorted(Path(ssdkit.__file__).parent.glob("*.py"))
PARSER_STEP = 8192


def parser_tokens(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(fh.readline))


def test_every_module_is_counted():
    assert {p.name for p in MODULES} >= {"gridfn.py", "suites.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_below_parser_step(path):
    n = parser_tokens(path)
    assert n < PARSER_STEP, (
        f"{path.name} has {n} parser tokens, at or over {PARSER_STEP}: see "
        "ROADMAP.md, Known limits, the entry on gridfn.py's parser tokens; "
        "move code out of the module or take tokens out elsewhere")
