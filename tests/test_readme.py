"""README's examples stay runnable: the library sketch runs and every command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from lrdshift.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language: str) -> list[str]:
    """The bodies of README's fenced code blocks tagged ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def command_lines() -> list[str]:
    """Each ``lrdshift ...`` command of the ``sh`` blocks, continuations joined,
    the part after a pipe taken."""
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            command = " ".join(line.split("|")[-1].split())
            if command.startswith("lrdshift "):
                commands.append(command)
    return commands


def test_library_sketch_runs():
    (sketch,) = blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})


@pytest.mark.parametrize("command", command_lines())
def test_command_line_parses(command):
    """argparse exits (SystemExit) on an unknown or removed flag."""
    build_parser().parse_args(shlex.split(command)[1:])


def test_every_subcommand_has_a_command_line():
    assert {command.split()[1] for command in command_lines()} == {
        "synth", "detect", "map", "threshold", "eval", "stream"}
