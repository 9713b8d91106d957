"""Closing an idle TCP connection retires its pipes and the server handler.

A connection closed in any other state must behave exactly as a close
that only sets the ``closed`` flag: whatever is in flight still moves,
and a datanode handler that finds the connection closed ends the
conversation instead of failing the run.
"""

import gc

import pytest

from repro.hdfs import Datanode
from repro.hdfs.protocol import (
    ErrorResponse,
    HdfsProtocolError,
    OpReadBlock,
    OpWriteBlock,
    WritePacket,
)
from repro.hdfs.replication import ReplicationMonitor
from repro.net.tcp import TcpConnection
from repro.sim import SimulationError
from repro.storage.content import LiteralSource
from tests.conftest import HadoopBed

BLOCK = 256 * 1024


def _processes(conn):
    """The two pipes plus whatever is parked on the request direction."""
    upstream = conn._directions[conn.vm_a.name]
    return ([d.pipe for d in conn._directions.values()]
            + upstream.rx.parked_getters())


def _round_trip(bed, datanode):
    """Connect to ``datanode`` and finish one request/response on it."""
    holder = {}

    def client():
        conn = yield from bed.network.connect(
            bed.client_vm, datanode.vm, bed.config.datanode_port)
        yield from conn.send(bed.client_vm, "ping")
        holder["reply"] = yield from conn.recv(bed.client_vm)
        holder["conn"] = conn

    bed.sim.process(client())
    bed.sim.run()
    assert isinstance(holder["reply"], ErrorResponse)
    return holder["conn"]


def test_idle_close_retires_pipes_and_handler(hadoop_bed):
    bed = hadoop_bed
    datanode = bed.datanode1
    first = _round_trip(bed, datanode)
    second = _round_trip(bed, datanode)
    processes = _processes(first)
    assert len(processes) == 3 and all(p.is_alive for p in processes)
    assert processes[2] in datanode._handlers
    bed.sim.timeout(1.0)  # something pending, to see the count hold
    seq, pending = bed.sim._seq, bed.sim._pending_count()
    first.close()
    assert (bed.sim._seq, bed.sim._pending_count()) == (seq, pending)
    assert not any(p.is_alive for p in processes)
    assert all(p._generator.gi_frame is None for p in processes)
    second.close()
    assert len(datanode._handlers) == 2
    _round_trip(bed, datanode)  # the accept loop prunes finished handlers
    assert len(datanode._handlers) == 1
    with pytest.raises(SimulationError, match="closed"):
        bed.sim.process(first.send(bed.client_vm, "late"))
        bed.sim.run()


def _flag_only_close(conn):
    """What ``close()`` did before idle teardown existed."""
    conn.closed = True


def _write_block(bed):
    bed.sim.process(bed.client.write_file("/f", b"x" * BLOCK))
    bed.sim.run()
    block = bed.namenode.get_blocks("/f")[0]
    return block, bed.namenode.datanode(block.locations[0])


def _in_flight_run(close, scenario):
    """Run ``scenario`` on a fresh bed, closing with ``close``.

    Returns everything the close could change: the error the run ended
    with, the clock, events processed, CPU accounting on both hosts and
    which of the connection's processes are still alive.
    """
    bed = HadoopBed()
    block, datanode = _write_block(bed)
    holder = {}

    def client():
        conn = yield from bed.network.connect(
            bed.client_vm, datanode.vm, bed.config.datanode_port)
        holder["conn"] = conn
        yield from scenario(bed, conn, block, close)

    bed.sim.process(client())
    error = None
    try:
        bed.sim.run()
    except SimulationError as exc:
        error = str(exc)
    return (error, bed.sim.now, bed.sim.events_processed,
            [host.accounting.snapshot() for host in bed.hosts],
            [p.is_alive for p in _processes(holder["conn"])])


def _close_with_request_in_flight(bed, conn, block, close):
    yield from conn.send(bed.client_vm, OpReadBlock(block.name, 0, BLOCK))
    close(conn)


def _close_with_response_unread(bed, conn, block, close):
    yield from conn.send(bed.client_vm, OpReadBlock(block.name, 0, BLOCK))
    yield bed.sim.timeout(1.0)  # the whole response is buffered by now
    assert len(conn._directions[conn.vm_b.name].rx) > 0
    close(conn)


def _close_during_send(bed, conn, block, close):
    def sender():
        yield from conn.send(bed.client_vm, OpReadBlock(block.name, 0, BLOCK))

    bed.sim.process(sender())
    yield bed.sim.timeout(1e-9)  # the sender is paying its syscall cycles
    assert conn._sending == 1
    close(conn)


@pytest.mark.parametrize("scenario", [
    _close_with_request_in_flight,
    _close_with_response_unread,
    _close_during_send,
])
def test_busy_close_behaves_as_flag_only_close(scenario):
    expected = _in_flight_run(_flag_only_close, scenario)
    assert _in_flight_run(TcpConnection.close, scenario) == expected
    # The handler hung up instead of failing the run, and nothing was
    # retired: both pipes are still alive.
    assert expected[0] is None
    assert all(expected[-1])


def test_close_with_parked_client_reader_retires_nothing(hadoop_bed):
    bed = hadoop_bed
    conn = _round_trip(bed, bed.datanode1)

    def reader():
        yield from conn.recv(bed.client_vm)

    reader_proc = bed.sim.process(reader())
    bed.sim.run()
    processes = _processes(conn)
    seq = bed.sim._seq
    conn.close()
    assert bed.sim._seq == seq
    assert all(p.is_alive for p in processes + [reader_proc])


def _live_connections():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, TcpConnection))


def test_sequential_reads_keep_live_connections_constant(hadoop_bed):
    bed = hadoop_bed
    _write_block(bed)

    def reads(count):
        for _ in range(count):
            yield from bed.client.read_file("/f")

    bed.sim.process(reads(2))
    bed.sim.run()
    baseline = _live_connections()
    bed.sim.process(reads(20))
    bed.sim.run()
    assert _live_connections() == baseline


def test_sanitized_run_quiesces_with_connections_retired(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    bed = HadoopBed(replication=2)
    assert bed.sim.sanitizer is not None
    bed.sim.process(bed.client.write_file("/f", b"y" * 3 * BLOCK))
    bed.sim.run()
    waiting = len(bed.sim.sanitizer._waiting_processes())

    def reads():
        for _ in range(5):
            yield from bed.client.read_file("/f")

    bed.sim.process(reads())
    bed.sim.run()  # check_quiescence raises on leaked slots or waiters
    assert len(bed.sim.sanitizer._waiting_processes()) <= waiting


def _unreleased(network):
    """Live connections on ``network`` that are open or keep a process.

    A retired connection may stay reachable a while (each accept loop
    holds the last one it accepted), but it pins no process.
    """
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, TcpConnection) and obj.network is network
            and (not obj.closed or any(p.is_alive for p in _processes(obj)))]


def _open(network):
    """Live connections on ``network`` that nobody has closed."""
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, TcpConnection) and obj.network is network
            and not obj.closed]


def test_pipelined_write_frees_every_connection():
    bed = HadoopBed(replication=2)
    bed.sim.process(bed.client.write_file("/f", b"z" * 2 * BLOCK))
    bed.sim.run()
    assert len(bed.namenode.get_blocks("/f")[0].locations) == 2
    assert _unreleased(bed.network) == []


def test_re_replication_frees_its_connection():
    bed = HadoopBed(replication=2)
    Datanode("dn3", bed.vms[3], bed.namenode, bed.network)
    bed.sim.process(bed.client.write_file("/f", b"w" * BLOCK))
    bed.sim.run()
    block = bed.namenode.get_blocks("/f")[0]
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    bed.namenode.datanode(block.locations[0]).stop()
    bed.sim.run(until=8.0)
    monitor.stop()
    assert monitor.re_replications == 1
    assert _unreleased(bed.network) == []


def _handler(datanode):
    """The one handler process ``datanode`` has started."""
    assert len(datanode._handlers) == 1
    return datanode._handlers[0]


def test_copy_to_stopped_target_ends_its_handler():
    # The target is stopped but not yet declared dead: it answers the
    # OpWriteBlock with an error while the block packet is still on the
    # wire, and the source closes the connection on that first error.
    bed = HadoopBed()
    block, source = _write_block(bed)
    target = bed.datanode2 if source is bed.datanode1 else bed.datanode1
    monitor = ReplicationMonitor(bed.namenode, bed.network)
    target.stop()
    copy = bed.sim.process(monitor._copy_block(block, source, target))
    bed.sim.run()
    assert copy.value is False
    assert block.locations == [source.datanode_id]
    assert not _handler(target).is_alive
    # Closed busy, so only flagged: its pipes stay parked, as before.
    assert _open(bed.network) == []


def test_rebalance_onto_stopped_target_moves_nothing_there():
    bed = HadoopBed()
    for index in range(4):
        bed.sim.process(bed.client.write_file(f"/f{index}", b"r" * BLOCK))
    bed.sim.run()
    taker = Datanode("dn3", bed.vms[3], bed.namenode, bed.network)
    taker.stop()
    monitor = ReplicationMonitor(bed.namenode, bed.network)
    rebalance = bed.sim.process(monitor.rebalance())
    bed.sim.run()
    assert not rebalance.is_alive
    assert all("dn3" not in block.locations
               for block in bed.namenode._blocks.values())
    assert not _handler(taker).is_alive
    assert _open(bed.network) == []


def test_pipelined_write_to_stopped_downstream_fails_cleanly():
    # dn2 answers every forwarded packet with an error; dn1 closes its
    # downstream connection on the first one while the last packet is
    # still in flight.
    bed = HadoopBed(replication=2)
    bed.datanode2.stop()
    outcome = {}

    def writer():
        try:
            yield from bed.client.write_file("/f", b"s" * BLOCK)
        except HdfsProtocolError as exc:
            outcome["error"] = str(exc)

    bed.sim.process(writer())
    bed.sim.run()
    assert "downstream pipeline failed" in outcome["error"]
    assert not _handler(bed.datanode2).is_alive


def test_retired_mid_pipeline_handler_closes_its_downstream():
    # The client hangs up on dn1 while dn1 waits for the next packet:
    # dn1's handler is retired, and it closes dn1 -> dn2 on the way out,
    # which retires dn2's handler as well.
    bed = HadoopBed()
    holder = {}

    def client():
        conn = yield from bed.network.connect(
            bed.client_vm, bed.datanode1_vm, bed.config.datanode_port)
        yield from conn.send(bed.client_vm, OpWriteBlock("blk_x", ["dn2"]))
        payload = LiteralSource(b"p" * 4096)
        yield from conn.send(bed.client_vm, WritePacket(payload, last=False),
                             size=payload.size)
        holder["conn"] = conn

    bed.sim.process(client())
    bed.sim.run()
    handlers = [_handler(bed.datanode1), _handler(bed.datanode2)]
    assert all(h.is_alive for h in handlers)
    seq = bed.sim._seq
    holder["conn"].close()
    assert bed.sim._seq == seq
    assert not any(h.is_alive for h in handlers)
    assert _unreleased(bed.network) == []
