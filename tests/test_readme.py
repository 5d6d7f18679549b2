"""The README's CLI walkthrough, run command by command, and its library
example, run as it stands."""

import re
import shlex
from pathlib import Path

from geopost.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough_commands():
    """The ``geopost`` commands of the first fenced bash block under
    ``## CLI walkthrough``, with continuation lines joined, as argv lists
    without the leading ``geopost``."""
    section = README.read_text(encoding="utf-8").split("\n## CLI walkthrough\n", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("geopost ")]


def test_walkthrough_runs(tmp_path, monkeypatch, capsys):
    commands = _walkthrough_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "estimate", "evaluate", "tune"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert Path(argv[argv.index("--out") + 1]).exists(), argv
    for name in ("errors.csv", "cdf.csv", "density.csv"):
        assert (tmp_path / "report" / name).is_file()


def test_library_example_runs(capsys):
    # The first python block under ``## Library use``, executed as is.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert namespace["report"].mean_error_km >= 0.0
