"""The README's Python examples and CLI lines run against the current API."""

import json
import re
import shlex
from pathlib import Path

from seqheight.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_cli_lines_run_on_the_readme_config(capsys, monkeypatch, tmp_path):
    text = README.read_text()
    (config,) = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    (tmp_path / "cfg.json").write_text(config)
    # the lines name cfg.json and their CSV outputs relative to the cwd
    monkeypatch.chdir(tmp_path)
    lines = [
        shlex.split(line)
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("seqheight ")
    ]
    assert len(lines) == 12
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        json.loads(capsys.readouterr().out)
