"""Copies of this repository's trees for side-by-side runs.

A tool that compares the working tree with a git revision runs each one
from a fresh directory: ``export`` writes a revision there with ``git
archive``, ``copy_worktree`` the working tree's files as they are on
disk, and ``compile_tree`` byte-compiles either, so that no side pays
for compiling its sources inside a timed run.
"""

import compileall
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, into, *paths):
    """Extract git revision rev of this repository (only `paths`, if any
    are given) into the existing directory into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *paths],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"cannot export {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def copy_worktree(into, *paths):
    """Copy the files git would commit from the working tree (tracked, and
    untracked but not ignored; only under `paths`, if any are given), as
    they are on disk, into the existing directory into."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard", "--", *paths],
                            capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is left out
            target = Path(into, name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def compile_tree(root):
    """Byte-compile every Python file under root, or exit naming it."""
    if not compileall.compile_dir(str(root), quiet=1):
        raise SystemExit(f"cannot byte-compile the tree at {root}")
