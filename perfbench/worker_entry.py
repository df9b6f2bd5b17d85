"""Traced queue worker: ``repro worker`` with the benchmark's spans.

Traced serve-paced units point ``$REPRO_WORKER_CMD`` here, so the
workers the queue backend spawns record their shard spans into
``$PERFBENCH_TRACE_DIR`` before running the program's own
:func:`repro.exec.worker.worker_main` with the arguments the backend
passes (``--queue DIR``).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inproc  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    inproc.install_tracing(os.environ[inproc.TRACE_ENV])
    from repro.exec.worker import worker_main

    try:
        return worker_main(sys.argv[1:])
    finally:
        tracer.recorder().flush()


if __name__ == "__main__":
    sys.exit(main())
