"""The service façade: one public entry point for core maintenance.

::

    from repro.service import CoreService

    svc = CoreService.open(edges, engine="order")       # session
    with svc.transaction() as tx:                       # writes
        tx.insert(u, v)
        tx.remove(x, y)
    svc.core(v), svc.kcore(k), svc.top(10)              # reads
    svc.subscribe(on_event, min_k=8)                    # reactions
    svc.save(path); CoreService.load(path)              # checkpoints

    svc = CoreService.open(edges, log="session.wal")    # durable session
    svc.compact()                                       # snapshot + truncate
    svc = CoreService.recover("session.wal")            # after a crash

The async serving front lives here too::

    from repro.service import CoreServer, CoreClient, LogReplica

    async with CoreServer(log_dir=dir) as server:       # multi-tenant TCP
        host, port = await server.start()
        client = await CoreClient.connect(host, port, session="tenant-a")
        await client.commit([("insert", 0, 1)])         # exactly-once
        await client.cores(replica=True)                # log-tailing replica

Consumers (the CLI, the sliding-window monitor, examples) build engines
through this package; the engine registry and batch pipeline underneath
(:mod:`repro.engine`) are where engine implementations live.
"""

from repro.service.client import CoreClient, EventBatch, EventStream
from repro.service.events import CoreEvent, Subscription
from repro.service.protocol import (
    ConnectionClosedError,
    DeadlineExceededError,
    ProtocolError,
    RemoteError,
    RetryAfterError,
    SessionDegradedError,
)
from repro.service.replica import LogReplica
from repro.service.server import CoreServer, ServerLimits, TenantSession
from repro.service.session import CoreService, RecoveryReport
from repro.service.transactions import CommitReceipt, Transaction
from repro.service.wal import WriteAheadLog, log_stat

__all__ = [
    "CommitReceipt",
    "ConnectionClosedError",
    "CoreClient",
    "CoreEvent",
    "CoreServer",
    "CoreService",
    "DeadlineExceededError",
    "EventBatch",
    "EventStream",
    "LogReplica",
    "ProtocolError",
    "RecoveryReport",
    "RemoteError",
    "RetryAfterError",
    "ServerLimits",
    "SessionDegradedError",
    "Subscription",
    "TenantSession",
    "Transaction",
    "WriteAheadLog",
    "log_stat",
]
