"""Digest of the README's `hirz` examples.

    python3 tools/readme_cli.py [--src DIR]

Runs each `hirz` line of the README's CLI block, in order, through
`hirzebruch.cli.main` in one fresh temporary directory with `HIRZ_CACHE`
unset, and prints one sha256 over each line's command, exit code, stdout
and stderr, followed by the name and bytes of every file left in the
directory (the cache the examples write).  A change that leaves the CLI's
behaviour as it was must print the same digest as its parent; run the
script with `--src` pointing at the parent's `src/` (for example an
unpacked `git archive`) to get the parent's digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def examples(readme: str):
    """The `hirz` lines of the first code block after the `## CLI` heading,
    split into arguments with their trailing comments dropped."""
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(ln, comments=True) for ln in block.splitlines() if ln.startswith("hirz ")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hirzebruch import cli

    with open(os.path.join(ROOT, "README.md")) as fh:
        commands = examples(fh.read())
    digest = hashlib.sha256()
    os.environ.pop("HIRZ_CACHE", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for cmd in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(cmd[1:])
                    except SystemExit as exc:   # argparse refusals
                        code = exc.code
                digest.update(repr((cmd, code, out.getvalue(), err.getvalue())).encode())
            for name in sorted(os.listdir(tmp)):
                with open(name, "rb") as fh:
                    digest.update(repr((name, fh.read())).encode())
        finally:
            os.chdir(here)
    print("src %s" % os.path.dirname(os.path.dirname(cli.__file__)))
    print("%d hirz examples" % len(commands))
    print("sha256 %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
