"""README's CLI walkthrough runs as written: every command of its code block
exits 0, with /tmp moved to a test directory and training cut to one epoch."""

import os
import shlex
import subprocess
import sys

from conftest import ROOT


def walkthrough_commands() -> list[list[str]]:
    """The commands of the code block under "## CLI walkthrough", one argv
    each, continuation lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_walkthrough_commands_exit_zero(tmp_path):
    commands = walkthrough_commands()
    assert [argv[:2] for argv in commands] == [
        ["python3", "scripts/make_synthetic.py"], ["dgcf", "preprocess"], ["dgcf", "train"],
        ["dgcf", "evaluate"], ["dgcf", "recommend"], ["dgcf", "diagnose"]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in commands:
        argv = [arg.replace("/tmp", str(tmp_path)) for arg in argv]
        if argv[:2] == ["dgcf", "train"]:
            argv += ["--epochs", "1"]  # argparse keeps the last value
        program = [sys.executable] if argv[0] == "python3" else [sys.executable, "-m", "dgcf.cli"]
        done = subprocess.run(program + argv[1:], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, (argv, done.stderr)
