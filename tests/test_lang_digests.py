"""The ``.loop`` front end keeps its output, token for token.

Each input below is digested over its token stream (or the
``LexError`` text) and over ``repr(parse(...))`` (or the error class
and message), and the digests are pinned in
``tests/goldens/lang_digests.json``.  The pinned file was recorded with
the character-by-character lexer and the ``_accept``-chain parser that
the regex lexer and the direct-index parser replaced, so a change in
any token's kind, text, line or column, in any AST node, or in any
error message shows here.

The inputs are the suite at scale 0.05, ``examples/*.loop``, 20
``storm_program`` files, the hand cases below, and 40 seeded
character-level mutations of each.  No input holds a numeric character
that is not a decimal digit (``²``, ``½``): the two lexers differ on
those on purpose, and ``tests/test_lang.py`` covers them.  After an
intentional change to the front end's output, regenerate with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_lang_digests.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
import pathlib
import random

from repro.fuzz.edits import storm_program
from repro.lang import LangError, LexError, parse, tokenize
from repro.lang.unparse import program_to_source
from repro.perfect import load_suite
from repro.perfect.source_gen import queries_to_source

ROOT = pathlib.Path(__file__).parent.parent
DIGESTS = ROOT / "tests" / "goldens" / "lang_digests.json"
MUTATIONS = 40

HAND_CASES = {
    "empty": "",
    "blank-lines": "\n\n  \n\t\n",
    "comment-only": "# just a comment",
    "comment-lines": "# head\nx = 1 # tail\n# mid\n\ny = 2 # last, no newline",
    "comment-after-do": (
        "for i = 1 to 10 do # loop\n  a[i] = a[i - 1] # body\nend # done\n"
    ),
    "comment-glued": "x = 1#glued\ny = a[1]#\n#",
    "crlf": "read(n)\r\nfor i = 1 to n do\r\n  a[i] = a[i - 1]\r\nend\r\n",
    "crlf-no-final": "x = 1\r\ny = 2\r",
    "tabs": "for\ti = 1 to 10 do\n\ta[i]\t=\ta[i - 1]\t\nend\n",
    "trailing-blanks": "x = 1   \ny = 2\t \n   ",
    "no-final-newline": "for i = 1 to 10 do\n  a[i] = 0\nend",
    "end-for": (
        "for i = 1 to 10 do\n  for j = 1 to i do\n    a[i][j] = 1\n  end for\n"
        "end for\n"
    ),
    "step": (
        "for i = 10 to 1 step -1 do\n  a[i] = a[i + 1]\nend\n"
        "for j = 1 to 9 step 2 do\nend\n"
    ),
    "if-else": (
        "read(n)\nfor i = 1 to n do\n  if i > 2 then\n    a[i] = 1\n"
        "  else\n    a[i] = a[i - 1]\n  end if\nend\n"
    ),
    "comparisons": (
        "if a < b then\nend\nif a <= b then\nend\nif a > b then\nend\n"
        "if a >= b then\nend\nif a == b then\nend\nif a != b then\nend\n"
    ),
    "expressions": "x = -(a + 2) * 3 - -b[i][j + 1] * (c - 4)\ny = 007 + x_1 + _z\n",
    "unicode-names": "for é = 1 to 10 do\n  ω[é] = ω[é - 1]\nend\n",
    "other-script-digits": "x = ٣ + 1\nfor i = ١ to ٩ do\n  a[i] = 0\nend\n",
    "keywords-as-statement-ends": "for i = 1 to 3 do a[i] = 0 end\n",
    "lex-dollar": "x = $\n",
    "lex-bang": "x = a ! b\n",
    "lex-late": "x = 1\ny = 2\n  z = @\n",
    "lex-in-comment-ok": "x = 1 # $ @ ! are fine here\n",
    "lex-nbsp": "x =\u00a01\n",
    "err-expected-ident": "for = 1 to 10 do\nend\n",
    "err-expected-newline": "x = 1 2\n",
    "err-expected-rparen": "x = (1 + 2\n",
    "err-expected-rbracket": "a[i = 1\n",
    "err-expected-int-step": "for i = 1 to 10 step n do\nend\n",
    "err-expected-do": "for i = 1 to 10\n  a[i] = 0\nend\n",
    "err-expected-then": "if a < b\nend\n",
    "err-expected-lparen": "read n\n",
    "err-missing-end": "for i = 1 to 10 do\n  a[i] = 0\n",
    "err-missing-end-or-else": "if x < 1 then\n  y = 1\n",
    "err-missing-end-after-else": "if x < 1 then\nelse\n  y = 1\n",
    "err-statement": "end\n",
    "err-statement-keyword": "to = 3\n",
    "err-statement-bracket": "[x] = 3\n",
    "err-comparison": "if x then\nend\n",
    "err-zero-step": "for i = 1 to 10 step 0 do\nend\n",
    "err-negative-zero-step": "for i = 1 to 10 step -0 do\nend\n",
    "err-expression": "x = * 2\n",
    "err-expression-eof": "x = 1 +",
}

# Characters and fragments the mutations insert: every token class,
# every separator, comment and line-ending character, two characters
# the lexer rejects, and letters and a decimal digit outside ASCII.
_ALPHABET = list(" \t\r\n#+-*=<>!()[],_$@019azZéΩ٣") + [
    "for", "to", "step", "do", "end", "read", "if", "then", "else",
    "<=", ">=", "==", "!=", "\n\n", "\r\n",
]


def _is_excluded(text: str) -> bool:
    return any(ch.isnumeric() and not ch.isdecimal() for ch in text)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.35 or not text:
            text = text[:at] + rng.choice(_ALPHABET) + text[at:]
        elif roll < 0.6:
            text = text[:at] + text[at + 1 :]
        elif roll < 0.8:
            text = text[:at] + rng.choice(_ALPHABET) + text[at + 1 :]
        elif roll < 0.9:
            text = text[:at] + text[at : at + rng.randint(1, 8)] + text[at:]
        else:
            swapped = text[at + 1 : at + 2] + text[at : at + 1]
            text = text[:at] + swapped + text[at + 2 :]
    return text


def _bases() -> dict[str, str]:
    bases = {}
    for program in load_suite(include_symbolic=True, scale=0.05):
        bases[f"suite/{program.name}"] = queries_to_source(list(program.queries))
    for path in sorted((ROOT / "examples").glob("*.loop")):
        bases[f"example/{path.name}"] = path.read_text()
    for seed in range(20):
        bases[f"storm/{seed}"] = program_to_source(storm_program(seed))
    for name, text in HAND_CASES.items():
        bases[f"hand/{name}"] = text
    return bases


def _inputs(key: str, text: str) -> list[str]:
    rng = random.Random(key)
    return [text] + [_mutate(rng, text) for _ in range(MUTATIONS)]


def _digest(text: str) -> str:
    h = hashlib.sha256()
    try:
        tokens = tokenize(text)
    except LexError as err:
        h.update(f"LexError {err}".encode())
    else:
        h.update(repr([(t.kind, t.text, t.line, t.column) for t in tokens]).encode())
    h.update(b"\0")
    try:
        tree = parse(text, name="<digest>")
    except LangError as err:
        h.update(f"{type(err).__name__} {err}".encode())
    else:
        h.update(repr(tree).encode())
    return h.hexdigest()[:12]


def test_inputs_hold_no_excluded_character():
    for key, text in _bases().items():
        for index, variant in enumerate(_inputs(key, text)):
            assert not _is_excluded(variant), (key, index)


def test_front_end_output_is_unchanged():
    got = {
        key: [_digest(variant) for variant in _inputs(key, text)]
        for key, text in _bases().items()
    }
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        lines = (f"{json.dumps(key)}: {json.dumps(got[key])}" for key in sorted(got))
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    want = json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(want)
    changed = [
        f"{key}#{index}"
        for key in sorted(want)
        for index, (a, b) in enumerate(zip(got[key], want[key]))
        if a != b
    ]
    assert not changed, f"{len(changed)} inputs changed: {changed[:20]}"
    assert all(len(got[key]) == len(want[key]) for key in want)
