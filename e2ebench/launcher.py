"""Run ``repro.cli.main`` with the benchmark's layer wrappers installed.

Usage::

    python3 e2ebench/launcher.py [--layer-spans FILE] -- serve --port 0 ...

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.  With
``--layer-spans`` the wrappers of :mod:`layers` record from start-up
until ``main`` returns (the server drains on SIGTERM), and the spans are
written to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launcher.py")
    parser.add_argument("--layer-spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from repro.cli import main as cli_main

    if args.layer_spans is None:
        return cli_main(cli_args)

    import layers

    recorder = layers.Recorder()
    layers.install(recorder)
    recorder.stage = "measure"
    recorder.enabled = True
    try:
        return cli_main(cli_args)
    finally:
        recorder.enabled = False
        recorder.save(args.layer_spans, source="server")


if __name__ == "__main__":
    sys.exit(main())
