"""The README's examples stay in step with the code: its library example
runs, its JSON configs load, and its command lines parse."""

import json
import re
import shlex
from pathlib import Path

import pytest

from kronfisher.cli import build_parser
from kronfisher.experiment import config_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def command_lines() -> list[str]:
    lines = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("kronfisher "):
                lines.append(" ".join(line.split()))
    return lines


def test_library_example_runs():
    section = README.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = blocks("python", section)
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("n", range(len(blocks("json"))), ids="json{}".format)
def test_json_config_loads(n):
    config_from_dict(json.loads(blocks("json")[n]))


@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_examples_are_found():
    """An empty match would pass the tests above without checking anything."""
    assert blocks("json") and command_lines()
