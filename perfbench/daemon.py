"""Launch the verification daemon for the ``edit-loop`` workload.

Starts :class:`repro.server.VerifyServer` in this process on an
ephemeral port with one worker, a proof-cache root (which turns delta
on) and the default incremental and warm-pool settings.  Prints
``{"port": N}`` once listening.  After a ``shutdown`` request it prints
``{"peak_rss_mb": X}`` and, when ``--spans`` is given, writes the trace.

With ``--spans`` the layer wrappers of :mod:`tracing` are installed in
this process.  Requests from a client whose name ends in ``+trace`` are
traced; all others run with tracing off, so one daemon serves both
halves of the traced run.  The daemon also shuts down when its standard
input reaches end of file, so it never outlives the benchmark that
started it.  Each line ``ref`` on its standard input runs the reference
workload (``reference.py``) in this process and prints ``{"ref_ms": T}``.
Usage (from the checkout root, with ``src`` on
``PYTHONPATH``)::

    python3 perfbench/daemon.py --cache DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading

TRACE_SUFFIX = "+trace"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cache", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    from repro.api import VerifyConfig
    from repro.server import ServerConfig, VerifyServer
    from repro.server import protocol
    from reference import reference_ms

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.wrap(protocol, "build_module", "build")
        process = VerifyServer._process

        def traced_process(server, pending):
            request = pending.request
            tracer.enabled = request["client"].endswith(TRACE_SUFFIX)
            tracer.set_request(request["id"])
            return tracer.span("request", process, server, pending)

        VerifyServer._process = traced_process

    server = VerifyServer(ServerConfig(port=0, workers=1),
                          VerifyConfig(cache_dir=args.cache))

    async def serve():
        await server.start()
        loop = asyncio.get_running_loop()

        def watch_parent():
            # A line "ref" asks for one run of the reference workload,
            # sent only between requests, while the server is idle; end
            # of file means the benchmark has ended.
            for line in sys.stdin:
                if line.strip() == "ref":
                    print(json.dumps({"ref_ms": reference_ms()}),
                          flush=True)
            if not loop.is_closed():
                asyncio.run_coroutine_threadsafe(server.shutdown(), loop)

        threading.Thread(target=watch_parent, daemon=True).start()
        print(json.dumps({"port": server.port}), flush=True)
        await server.serve_forever()

    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
