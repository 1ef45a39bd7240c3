"""README.md's code runs as written: every ```python block, then every
``cassirecon`` command of a ```sh block, in one fresh directory. Every
dotted name it gives in a ``cassirecon`` module exists."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cassirecon
from cassirecon.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    """A fresh directory in which every ```python block of README.md ran;
    the first writes the walkthrough's scene.hsc."""
    path = tmp_path_factory.mktemp("readme")
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        for block in blocks:
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    return path


def test_readme_python_blocks_run(readme_dir):
    assert (readme_dir / "scene.hsc").is_file()


def test_readme_cli_commands_parse(readme_dir, monkeypatch, capsys):
    # a command that runs has parsed
    monkeypatch.chdir(readme_dir)
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cassirecon ")
    ]
    assert commands
    for argv in commands:
        try:
            code = main(argv[1:])
        except SystemExit as err:  # argparse rejected the command
            code = err.code
        assert code == 0, f"README command exits {code}: {shlex.join(argv)}"
    for name in ("recon.hsc", "recon_l1.hsc", "psnr.csv"):
        assert (readme_dir / name).is_file(), name
    assert len(list((readme_dir / "slices").glob("*.pgm"))) == 16


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
