"""Run one mixbudget CLI command with the library traced.

    python perfbench/traced_cli.py SPANS_DIR COMMAND --config PATH

Installs the span wrappers of ``layers.py``, runs the command through
``mixbudget.cli.main`` and writes this process's spans to
``SPANS_DIR/spans-<pid>.json``. Sweep workers forked from this process
inherit the wrappers; each writes its own spans per seed to
``SPANS_DIR/spans-<pid>-<seed>.json``. Under a start method other than
fork the workers run untraced.
"""
from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

from layers import Tracer
from mixbudget import cli


def main() -> int:
    spans_dir = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    main_pid = os.getpid()
    worker = getattr(cli, "_sweep_worker", None)
    if worker is not None:
        @functools.wraps(worker)
        def traced_worker(*args, **kwargs):
            if os.getpid() == main_pid:  # a serial sweep runs in this process
                return worker(*args, **kwargs)
            tracer.reset()  # drop the spans copied from the parent at fork
            try:
                return worker(*args, **kwargs)
            finally:
                tracer.dump(spans_dir / f"spans-{os.getpid()}-{args[1]}.json")

        tracer.patch(cli, "_sweep_worker", traced_worker)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(spans_dir / f"spans-{main_pid}.json")


if __name__ == "__main__":
    sys.exit(main())
