"""The documented surface matches the code: README's exit codes and ``__all__``."""

import re
from pathlib import Path

import groupwindows
from groupwindows import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_the_exit_codes_of_cli():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    paragraph = next(p for p in section.split("\n\n") if "exit codes" in p)
    documented = {int(code) for code in re.findall(r"`(\d+)`\s", paragraph)}
    exits = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert documented == exits


def test_every_exported_name_resolves():
    missing = [name for name in groupwindows.__all__ if not hasattr(groupwindows, name)]
    assert missing == []
    assert len(set(groupwindows.__all__)) == len(groupwindows.__all__)
