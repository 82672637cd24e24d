"""The README describes the running system, and these tests keep it so.

* Every figure is quoted next to the committed ``BENCH_*.json`` key it
  comes from, as ``0.56 ms (`BENCH_service.json:<key>`)``, and equals that
  key's value to the quoted precision.  No timing, rate, size or share
  appears without such a key.
* Every ``repro.cli``, ``repro.experiments`` and ``repro.analysis`` command
  in a ``bash`` block parses with the real argument parsers.
* Every repository path named in ``README.md`` or ``CONTRIBUTING.md`` exists,
  and so does every ``*.md`` file or repository path named in ``src/`` or
  ``benchmarks/``.
* A before/after table names the ``CHANGES.md`` entry that measured it.

Run as a script (``PYTHONPATH=src python tests/test_readme.py``) this
module runs every README command from the repository root, except those in
a block that opens with :data:`SERVER_MARK`, and exits nonzero at the first
command that fails.
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CONTRIBUTING = ROOT / "CONTRIBUTING.md"
CHANGES = ROOT / "CHANGES.md"

#: First line of a README ``bash`` block whose commands need a running
#: ``serve --http``; such blocks are parsed but never run.
SERVER_MARK = "# needs a running server"

CITATION = re.compile(r"`(BENCH_\w+\.json):([^`]+)`")
# the figure a citation quotes: "0.56 ms (" right before the key
QUOTED = re.compile(r"(-?\d[\d,]*(?:\.\d+)?)\s*(%|×|[A-Za-zµ/]+)?\s*\($")
# a timing, rate, size or share in prose: these need a citation
FIGURE = re.compile(
    r"(?<![\w.^/-])\d[\d,]*(?:\.\d+)?\s?(?:ms|µs|s|rps|req/s|KB|MB|GB|%|×)(?![\w/])"
)
ENTRY = re.compile(r'`CHANGES\.md` entry "([^"]+)"')
TOP_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")
REPO_PATH = re.compile(
    r"(?<![\w./~-])(?:%s)/[\w./-]*[\w/]" % "|".join(TOP_DIRS)
)
MD_NAME = re.compile(r"(?<![\w.-])[\w-]+\.md\b")
PATH_SPAN = re.compile(r"[\w.-]+(?:/[\w.-]*)+|[\w.-]+\.(?:py|c|json|md|yml|ini)")


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def _prose(text: str) -> str:
    """``text`` without its fenced code blocks."""
    return re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)


# ------------------------------------------------------------ BENCH keys
def _select(rows: list, selector: str):
    """The one element of ``rows`` that ``selector`` names: an index, or
    ``field=value,...`` over each row and its ``params``."""
    if selector.isdigit():
        return rows[int(selector)]
    wanted = [term.split("=", 1) for term in selector.split(",")]

    def field(row: dict, name: str):
        return row[name] if name in row else row.get("params", {}).get(name)

    matches = [
        row for row in rows
        if all(str(field(row, name)).lower() == value.lower() for name, value in wanted)
    ]
    if len(matches) != 1:
        raise KeyError(f"[{selector}] matches {len(matches)} rows, not one")
    return matches[0]


def resolve(document, path: str):
    """The value at ``path`` in a ``BENCH_*.json`` document.

    Dots separate keys, except that a key may itself contain dots
    (``kernel.set_builder_ms``); ``[...]`` selects one list element.
    """
    segments = re.findall(r"\[[^\]]*\]|[^.\[\]]+", path)
    node = document
    while segments:
        if segments[0].startswith("["):
            node = _select(node, segments.pop(0)[1:-1])
            continue
        for end in range(len(segments), 0, -1):
            key = ".".join(segments[:end])
            if isinstance(node, dict) and key in node:
                node = node[key]
                del segments[:end]
                break
        else:
            raise KeyError(f"no key {segments[0]!r} in {path!r}")
    return node


def citations(text: str):
    """``(file, key, quoted figure or None, unit or None)`` for every
    ``BENCH_*.json`` key the text names."""
    for match in CITATION.finditer(text):
        quoted = QUOTED.search(text[max(0, match.start() - 40):match.start()])
        yield (match.group(1), match.group(2),
               quoted.group(1) if quoted else None,
               quoted.group(2) if quoted else None)


def quote_matches(value, quoted: str, unit: str | None) -> bool:
    """Whether ``quoted`` is ``value`` written to its own precision."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if unit == "%":
        value *= 100
    digits = quoted.replace(",", "")
    places = len(digits.partition(".")[2])
    return f"{value:.{places}f}" == digits


def test_every_cited_key_resolves_and_its_figure_equals_the_committed_value():
    problems = []
    found = 0
    for name, key, quoted, unit in citations(_readme()):
        found += 1
        document = json.loads((ROOT / name).read_text())
        try:
            value = resolve(document, key)
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"{name}:{key}: {exc}")
            continue
        if quoted is not None and not quote_matches(value, quoted, unit):
            problems.append(f"{name}:{key} is {value!r}, README quotes {quoted}")
    assert found >= 20, "the README cites fewer keys than it should"
    assert not problems, "\n".join(problems)


def test_no_figure_without_a_key():
    prose = _prose(_readme())
    uncited = [
        figure.group(0) + " … " + prose[figure.end():figure.end() + 30].split("\n")[0]
        for figure in FIGURE.finditer(prose)
        if not re.match(r"\s*\(`BENCH_\w+\.json:", prose[figure.end():])
    ]
    assert not uncited, "figures without a BENCH key:\n" + "\n".join(uncited)


def test_resolver_reads_selectors_and_dotted_keys():
    document = {"rows": [{"params": {"n": 7}, "form": "mask", "kernel.x_ms": 0.25},
                         {"params": {"n": 7}, "form": "buffer", "kernel.x_ms": 0.5}],
                "slot": {"after": {"hops": 1.0}}}
    assert resolve(document, "rows[n=7,form=buffer].kernel.x_ms") == 0.5
    assert resolve(document, "rows[0].kernel.x_ms") == 0.25
    assert resolve(document, "slot.after.hops") == 1.0
    with pytest.raises(KeyError):
        resolve(document, "rows[n=7].kernel.x_ms")
    assert quote_matches(0.5639, "0.56", "ms")
    assert quote_matches(0.01127, "1.13", "%")
    assert quote_matches(16801, "16,801", None)
    assert not quote_matches(0.5639, "0.57", "ms")


# ------------------------------------------------------- before/after tables
def _tables(text: str):
    """``(header line, line after the table)`` for every markdown table."""
    lines = _prose(text).splitlines()
    index = 0
    while index < len(lines) - 1:
        if lines[index].startswith("|") and re.match(r"\|\s*:?-", lines[index + 1]):
            end = index + 2
            while end < len(lines) and lines[end].startswith("|"):
                end += 1
            following = next((line for line in lines[end:] if line.strip()), "")
            yield lines[index], following
            index = end
        else:
            index += 1


def test_every_before_after_table_names_its_changes_entry():
    changes = CHANGES.read_text(encoding="utf-8")
    problems = []
    for header, following in _tables(_readme()):
        if not re.search(r"\b(before|parent)\b", header, re.I):
            continue
        entry = ENTRY.search(following)
        if entry is None:
            problems.append(f"{header}: the line after it names no CHANGES.md entry")
        elif entry.group(1) not in changes:
            problems.append(f"{header}: no CHANGES.md entry {entry.group(1)!r}")
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------- commands
def bash_commands(text: str):
    """``(command, needs_server)`` for every command of every ``bash``
    block, continuation lines joined and comments dropped."""
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.S | re.M):
        needs_server = block.lstrip().startswith(SERVER_MARK)
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                yield line, needs_server


def _argv(command: str) -> list[str]:
    argv = shlex.split(command, comments=True)
    while argv and re.match(r"^[A-Z_]+=", argv[0]):
        argv.pop(0)
    return argv


def check_command(command: str) -> str | None:
    """Why ``command`` would not parse, or ``None`` when it does."""
    from repro.analysis.__main__ import _build_parser as analysis_parser
    from repro.cli import build_parser as cli_parser
    from repro.experiments.__main__ import build_parser as experiments_parser
    from repro.experiments.runners import EXPERIMENTS

    argv = _argv(command)
    if argv[:1] not in (["python"], ["python3"]) or len(argv) < 2:
        return "not a python command"
    if argv[1] != "-m":
        return None if (ROOT / argv[1]).is_file() else f"no script {argv[1]}"
    module, args = argv[2], argv[3:]
    if module == "pytest":
        return None
    if module == "repro.cli" and args[:1] == ["lint"]:
        module, args = "repro.analysis", args[1:]
    parsers = {"repro.cli": cli_parser, "repro.experiments": experiments_parser,
               "repro.analysis": analysis_parser}
    if module not in parsers:
        return f"unknown module {module}"
    try:
        parsed = parsers[module]().parse_args(args)
    except SystemExit:
        return "rejected by its parser"
    if module == "repro.experiments":
        unknown = [name for name in parsed.experiments if name.upper() not in EXPERIMENTS]
        if unknown:
            return f"unknown experiments {unknown}"
    return None


def test_every_readme_command_parses():
    commands = [command for command, _ in bash_commands(_readme())]
    modules = {" ".join(_argv(command)[1:3]) for command in commands}
    assert {"-m repro.cli", "-m repro.experiments", "-m repro.analysis"} <= modules
    problems = [f"{command}: {why}" for command in commands
                if (why := check_command(command)) is not None]
    assert not problems, "\n".join(problems)


def test_a_bad_flag_fails_the_check():
    assert check_command("PYTHONPATH=src python -m repro.cli serve --no-such-flag") \
        == "rejected by its parser"
    assert check_command("python -m repro.experiments E42") is not None
    assert check_command("python -m repro.cli lint --list-rules") is None


def test_only_server_commands_are_marked():
    for command, needs_server in bash_commands(_readme()):
        argv = _argv(command)
        served = "--http" in argv or argv[3:4] == ["worker"]
        assert served == needs_server, command


# -------------------------------------------------------------------- paths
def _named_paths(text: str):
    """Backticked spans that look like repository paths."""
    for span in re.findall(r"`([^`\s]+)`", text):
        span = span.rstrip(".,;")
        if PATH_SPAN.fullmatch(span):
            yield span


def _exists(path: str) -> bool:
    return (ROOT / path).exists() or (ROOT / "src" / path).exists()


@pytest.mark.parametrize("document", [README, CONTRIBUTING], ids=lambda path: path.name)
def test_every_named_repo_path_exists(document):
    text = document.read_text(encoding="utf-8")
    named = set(_named_paths(text)) | set(MD_NAME.findall(text))
    missing = sorted(path for path in named if not _exists(path))
    assert not missing, f"{document.name} names missing paths: {missing}"


def test_sources_name_only_files_that_exist():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "src").rglob("*.c"),
               *(ROOT / "benchmarks").glob("*.py")]
    missing = []
    for source in sources:
        text = source.read_text(encoding="utf-8")
        for path in set(MD_NAME.findall(text)) | set(REPO_PATH.findall(text)):
            if not _exists(path):
                missing.append(f"{source.relative_to(ROOT)}: {path}")
    assert not missing, "\n".join(sorted(missing))


# --------------------------------------------------------------- as a script
def run_commands() -> int:
    """Run every README command that needs no server, from the repository
    root; stop at the first failure."""
    for command, needs_server in bash_commands(_readme()):
        if needs_server:
            continue
        print(f"$ {command}", flush=True)
        if subprocess.run(command, shell=True, cwd=ROOT, executable="/bin/bash").returncode:
            print(f"README command failed: {command}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(run_commands())
