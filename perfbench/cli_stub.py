"""Fresh-interpreter stand-in for the ``holring`` console script.

    python3 perfbench/cli_stub.py [--trace-out FILE] ARGV...
    python3 perfbench/cli_stub.py --import-only

Runs ``holring.cli.main(ARGV)`` from the checkout's sources and exits
with its code.  With --trace-out the layer wrappers are installed in this
process and the spans go to FILE, never to stdout.  --import-only prints
the monotonic clock right after ``import holring.cli`` and exits.
"""

import json
import sys
import time

from checkout import use_checkout_sources


def main(argv):
    use_checkout_sources()
    start = time.perf_counter()
    import holring.cli

    import_s = time.perf_counter() - start
    if argv == ["--import-only"]:
        print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
        return 0
    if argv[:1] != ["--trace-out"]:
        return holring.cli.main(argv)

    from tracer import Tracer

    path, argv = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return holring.cli.main(argv)
    finally:
        tracer.restore()
        tracer.write(path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
