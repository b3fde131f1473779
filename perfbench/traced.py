"""Run a ``python -m repro`` command with the span wrappers installed.

Usage::

    python perfbench/traced.py server SPANS.json -- serve --snapshot S ...
    python perfbench/traced.py router SPANS.json -- serve-router ...

The wrappers (see :mod:`layers`) go in before the command starts, so
the deployment is the one the untraced run serves with only the
wrappers added. When the command returns — SIGTERM unwinds ``serve``
through its normal shutdown — every span is written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Recorder  # noqa: E402

INSTALLERS = {"server": layers.install_server,
              "router": layers.install_router}


def main(argv):
    """Install the role's wrappers, run the CLI, dump the spans."""
    role, out, separator, command = argv[0], argv[1], argv[2], argv[3:]
    if separator != "--" or role not in INSTALLERS:
        print(__doc__, file=sys.stderr)
        return 2
    recorder = Recorder()
    INSTALLERS[role](recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(command)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
