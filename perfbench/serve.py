"""Start `talentrank serve` for the benchmark, optionally traced.

    python3 perfbench/serve.py [--trace-out SPANS.jsonl] serve --model ... --port 0

With --trace-out, the layer wrappers are installed before the CLI runs,
and the spans are written to that file when the server stops. SIGTERM
stops the server the way Ctrl-C does, so the spans get written.
"""

from __future__ import annotations

import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)

    from talentrank import cli

    tracer = None
    if trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install(spans.layer_targets())
        spans.install_server_roots(tracer)
    try:
        return cli.run(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
