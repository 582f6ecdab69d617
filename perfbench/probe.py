"""Set-up probe: a fresh interpreter imports the CLI and runs one warm-up request.

    python3 perfbench/probe.py '<JSON list of CLI argument lists>'

Prints ``ready`` once every command has run with exit code 0, so the caller
can time a fresh process from start to a CLI ready for work.
"""

import contextlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import genbound.cli as cli  # noqa: E402


def main() -> None:
    argvs = json.loads(sys.argv[1])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes = [cli.main(argv) for argv in argvs]
    print("ready" if not any(codes) else f"exit codes {codes}", flush=True)


if __name__ == "__main__":
    main()
