"""README.md's code runs as written: every ```python block in a fresh
directory, and every ``cassirecon`` command of a ```sh block through the
CLI's parser. Every dotted name it gives in a ``cassirecon`` module exists."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cassirecon
from cassirecon.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_commands_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cassirecon ")
    ]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_module_names_resolve():
    modules = {m.name for m in pkgutil.iter_modules(cassirecon.__path__)}
    names = [
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
        if name.split(".")[0] in modules
    ]
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"cassirecon.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name}, which the code does not have"
            obj = getattr(obj, attr)
