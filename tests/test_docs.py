"""The commands README.md and EXPERIMENTS.md show must still run.

Every ``python -m repro ...`` line in a fenced block parses with the
CLI's own parser and names only registered policies; every
``python examples/X.py`` line names an example that exists.  Lines that
load a ``--plugin`` are skipped: they name the reader's own module.
"""

import pathlib
import re
import shlex

import pytest

import repro.core.policy  # noqa: F401  (registers the built-ins)
from repro.cli import build_parser
from repro.core.registry import resolve_policy

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md")
#: Tokens that end a shell command (pipes, lists, background jobs).
_COMMAND_END = {"|", "||", "&&", ";", "&"}
#: A shell redirection operator.  Bare (``>``, ``2>``) it takes the
#: next word as its target; ``2>&1`` or ``>out.txt`` carry their own.
_REDIRECT = re.compile(r"\d*(>>?|<)")


def _fenced_lines(text):
    """The lines inside fenced blocks, ``\\`` continuations joined."""
    lines, inside, pending = [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside, pending = not inside, ""
            continue
        if not inside:
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    return lines


def _argv(line):
    """The shell words of ``line``'s first command, redirections dropped."""
    words = []
    tokens = iter(shlex.split(line, comments=True))
    for token in tokens:
        if token in _COMMAND_END:
            break
        if _REDIRECT.fullmatch(token):
            next(tokens, None)
        elif not _REDIRECT.match(token):
            words.append(token)
    return words


def _commands():
    """``(doc, argv)`` of every ``python ...`` command in the docs."""
    found = []
    for doc in DOCS:
        for line in _fenced_lines((ROOT / doc).read_text()):
            if not re.search(r"\bpython3?\s", line):
                continue  # prose or Python code, which shlex may not split
            argv = _argv(line)
            for i, word in enumerate(argv):
                if word in ("python", "python3"):
                    found.append((doc, argv[i + 1:]))
                    break
    return found


COMMANDS = _commands()
REPRO = [(doc, argv[2:]) for doc, argv in COMMANDS
         if argv[:2] == ["-m", "repro"] and "--plugin" not in argv]
EXAMPLES = [(doc, argv[0]) for doc, argv in COMMANDS
            if argv and argv[0].startswith("examples/")]


def test_docs_show_commands():
    assert len(REPRO) >= 20 and len(EXAMPLES) >= 5


@pytest.mark.parametrize("doc,argv", REPRO,
                         ids=[" ".join(argv) for _, argv in REPRO])
def test_repro_command_parses(doc, argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{doc}: 'python -m repro {' '.join(argv)}' does not parse")
    names = list(getattr(args, "policies", None) or [])
    if getattr(args, "policy", None) is not None:
        names.append(args.policy)
    for name in names:
        resolve_policy(name)


@pytest.mark.parametrize("doc,path", EXAMPLES, ids=[p for _, p in EXAMPLES])
def test_example_exists(doc, path):
    assert (ROOT / path).is_file(), f"{doc} runs {path}, which does not exist"
