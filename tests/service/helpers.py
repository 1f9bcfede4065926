"""Drive a live ServiceDaemon from synchronous test code.

The daemon is asyncio; the bundled client is blocking.  ``with_daemon``
owns the event loop on the test's thread, runs the client scenario in a
worker thread, and joins both — any client-side assertion error is
re-raised on the test thread.
"""

import asyncio
import threading

from repro.experiments.store import RunStore
from repro.service import JobScheduler, ServiceDaemon
from repro.service.client import ServiceClient


def with_daemon(
    store_root,
    scenario,
    run_workers=2,
    job_workers=None,
    spans=None,
    log=None,
    sse_keepalive=15.0,
):
    """Run ``scenario(client, daemon)`` against a live daemon; returns its value.

    ``spans`` (a SpanStore) and ``log`` (a JsonLogger) override the
    scheduler's defaults; ``sse_keepalive`` shortens the SSE keep-alive
    period for disconnect tests.
    """
    box = {}

    async def main():
        store = RunStore(store_root)
        scheduler = JobScheduler(
            store,
            run_workers=run_workers,
            job_workers=job_workers,
            spans=spans,
            log=log,
        )
        daemon = ServiceDaemon(
            store, scheduler, host="127.0.0.1", port=0, sse_keepalive=sse_keepalive
        )
        await daemon.start()
        errors = []

        def work():
            try:
                box["value"] = scenario(ServiceClient(port=daemon.port), daemon)
            except BaseException as exc:  # noqa: BLE001 - re-raised on the test thread
                errors.append(exc)

        thread = threading.Thread(target=work)
        thread.start()
        while thread.is_alive():
            await asyncio.sleep(0.02)
        thread.join()
        await daemon.stop()
        if errors:
            raise errors[0]

    asyncio.run(main())
    return box.get("value")
