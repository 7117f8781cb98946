"""Traced stand-in for `python -m harmgerm.cli`.

Usage: python cli_shim.py RECORD_JSON CLI_ARGS...

Times the cold import of harmgerm.cli, wraps the library with a
Recorder, runs the command with its stdout and exit code unchanged, and
writes the spans, counters, cache deltas and import time to RECORD_JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

start = perf_counter()
import harmgerm.cli  # noqa: E402

import_s = perf_counter() - start

from spans import Recorder  # noqa: E402


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    recorder.op = 0
    try:
        code = harmgerm.cli.main(argv)
    finally:
        recorder.op = None
        recorder.uninstall()
        sys.stdout.flush()
        recorder.import_times.append(import_s)
        Path(record_path).write_text(json.dumps(recorder.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
