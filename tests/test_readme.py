"""The README's examples stay in step with the code: its library example
runs, its JSON configs load, its command lines parse, and the config keys
it lists are the config's fields."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from kronfisher.cli import build_parser
from kronfisher.experiment import ProbeSpec, config_from_dict
from kronfisher.optim import OptimizerConfig

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


@pytest.mark.parametrize(
    "listing,section",
    [(r"The `optimizer` object accepts (.*?) \(", OptimizerConfig),
     (r"`probe` is an object with (.*?), or `null`", ProbeSpec)],
    ids=["optimizer", "probe"],
)
def test_listed_section_keys_are_the_fields(listing, section):
    (listed,) = re.findall(listing, " ".join(README.split()))
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(section)]
