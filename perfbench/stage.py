"""A stage process: one `tilscore` subcommand, plus what only it can see.

    python3 perfbench/stage.py RESULT_JSON {0,1} SUBCOMMAND [ARGS...]

Runs `tilscore.cli.main([SUBCOMMAND, ARGS...])` and exits with its code.
On the way out it writes `{"code", "vm_hwm_mb", "spans"}` to RESULT_JSON.
`vm_hwm_mb` is the peak RSS of this process's own address space (VmHWM).
`ru_maxrss` from `wait4` cannot serve: a child started by vfork and exec
inherits its parent's peak RSS into it, so a 13 MB child of a 500 MB parent
reads 504 MB.  With `1` the layers are traced (`tracer.py`) and the spans
are included; with `0` nothing else is loaded.
"""

from __future__ import annotations

import json
import re
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1)) / 1024.0


def main(argv: list[str]) -> int:
    result_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    from tilscore import cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(run_id=cli_args[0])
        tracer.install()
    code = None
    try:
        code = cli.main(cli_args)
        return code
    finally:
        with open(result_path, "w") as fh:
            json.dump({"code": code, "vm_hwm_mb": peak_rss_mb(),
                       "spans": tracer.spans if tracer else None}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
