"""Message-oriented TCP between VMs over virtio-net/vhost-net.

This models the paper's vanilla data path (Figure 1).  For every message:

* the **sender vCPU** pays a syscall, per-TSO-segment TCP transmit
  processing, and the user-buffer -> skb copy;
* the **sender VM's vhost-net thread** pays per-segment processing plus the
  per-byte copy out of the VM (straight into the co-located receiver VM, or
  into the host kernel for remote peers);
* remote peers additionally pay host network-stack cycles, the wire time on
  the physical NIC, and the receiving host's vhost-net copy into the VM;
* the **receiver vCPU** pays the virtual interrupt, per-segment TCP receive
  processing, and the kernel -> user copy on ``recv``.

Because the vhost-net threads are schedulable entities on the host's CPU
scheduler, every message crossing VMs synchronizes with up to four threads
(two vCPUs + two I/O threads) — the effect the paper's Figure 3 isolates.

Payloads are real objects (bytes / ByteSource / protocol dataclasses); the
wire size can be given explicitly for control messages.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.hostmodel.costs import CostModel
from repro.metrics.accounting import OTHERS, VHOST_NET
from repro.net.lan import Lan
from repro.sim import SimulationError, Simulator, Store
from repro.storage.content import ByteSource


def payload_size(payload: Any, explicit: Optional[int] = None) -> int:
    """Wire size of a payload: explicit, ByteSource size, or len(bytes)."""
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"negative payload size {explicit}")
        return explicit
    if isinstance(payload, ByteSource):
        return payload.size
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        return payload.nbytes
    #: Control/protocol objects default to a small header-sized message.
    return 128


class ConnectionClosed(SimulationError):
    """``send`` or ``recv`` on a connection that has been closed."""


class _Message:
    __slots__ = ("payload", "size")

    def __init__(self, payload: Any, size: int):
        self.payload = payload
        self.size = size


class TcpListener:
    """A passive socket bound to (vm, port); yields connections on accept."""

    def __init__(self, network: "VmNetwork", vm, port: int):
        self.network = network
        self.vm = vm
        self.port = port
        self._backlog = Store(network.sim)

    def accept(self):
        """Generator: wait for and return the next :class:`TcpConnection`."""
        connection = yield self._backlog.get()
        return connection


class _Direction:
    """One direction of a connection: sender-side queue, pipe, receiver queue."""

    def __init__(self, network: "VmNetwork", sender_vm, receiver_vm,
                 inflight_messages: int):
        self.network = network
        self.sender_vm = sender_vm
        self.receiver_vm = receiver_vm
        self.tx = Store(network.sim, capacity=inflight_messages)
        # Bounded receive buffer: an unread backlog eventually blocks the
        # sender (TCP flow control).
        self.rx = Store(network.sim, capacity=inflight_messages)
        self.pipe = network.sim.process(self._pipe())

    def _pipe(self):
        """Move messages through vhost/LAN, preserving FIFO order."""
        costs = self.network.costs
        while True:
            message = yield self.tx.get()
            segments = costs.segments(message.size)
            vhost_cycles = (costs.vhost_segment_cycles * segments
                            + costs.vhost_copy_cycles_per_byte * message.size)
            if self.sender_vm.host is self.receiver_vm.host:
                # Co-located: the sender's vhost-net handles the tx
                # descriptors; the receiver's vhost-net performs the single
                # inter-VM copy into the receiving guest's rx buffers.
                yield from self.sender_vm.vhost.run(
                    costs.vhost_segment_cycles * segments, VHOST_NET)
                yield from self.receiver_vm.vhost.run(vhost_cycles, VHOST_NET)
            else:
                # Out through the host kernel and the physical NIC...
                host_tx_cycles = (
                    costs.host_net_segment_cycles * segments
                    + costs.host_net_copy_cycles_per_byte * message.size)
                yield from self.sender_vm.vhost.run(
                    vhost_cycles + host_tx_cycles, VHOST_NET)
                yield from self.network.lan.transfer(
                    self.sender_vm.host, self.receiver_vm.host, message.size)
                # ...and in through the receiving host's vhost-net.
                host_rx_cycles = (
                    costs.host_net_segment_cycles * segments
                    + costs.host_net_copy_cycles_per_byte * message.size)
                recv_vhost_cycles = (
                    costs.vhost_segment_cycles * segments
                    + costs.vhost_copy_cycles_per_byte * message.size)
                yield from self.receiver_vm.vhost.run(
                    host_rx_cycles + recv_vhost_cycles, VHOST_NET)
            yield self.rx.put(message)


class TcpConnection:
    """An established, bidirectional, message-oriented TCP connection."""

    def __init__(self, network: "VmNetwork", vm_a, vm_b,
                 inflight_messages: int = 8):
        self.network = network
        self.vm_a = vm_a
        self.vm_b = vm_b
        self._directions = {
            vm_a.name: _Direction(network, vm_a, vm_b, inflight_messages),
            vm_b.name: _Direction(network, vm_b, vm_a, inflight_messages),
        }
        self.closed = False
        #: Sends that have not yet handed their message to the tx store.
        self._sending = 0

    def _direction_from(self, vm) -> _Direction:
        try:
            direction = self._directions[vm.name]
        except KeyError:
            raise SimulationError(f"{vm.name!r} is not an endpoint")
        if direction.sender_vm is not vm:
            raise SimulationError(f"{vm.name!r} endpoint mismatch")
        return direction

    def peer_of(self, vm):
        if vm is self.vm_a:
            return self.vm_b
        if vm is self.vm_b:
            return self.vm_a
        raise SimulationError(f"{vm.name!r} is not an endpoint")

    def send(self, vm, payload: Any, size: Optional[int] = None,
             copy_category: str = OTHERS, stack_category: str = OTHERS):
        """Generator: send ``payload`` from endpoint ``vm``.

        Blocks (backpressure) when the in-flight window is full.  The
        user->kernel copy is charged to ``copy_category``, TCP processing to
        ``stack_category`` (both on the sender vCPU).
        """
        if self.closed:
            raise ConnectionClosed("connection is closed")
        direction = self._direction_from(vm)
        costs = self.network.costs
        nbytes = payload_size(payload, size)
        segments = costs.segments(nbytes)
        stack_cycles = (costs.syscall_cycles
                        + costs.tcp_tx_segment_cycles * segments)
        # An interrupted send never decrements, so close() will only
        # flag its connection, never tear it down.
        self._sending += 1
        yield from vm.vcpu.run(stack_cycles, stack_category)
        copy_cycles = costs.tcp_copy_cycles_per_byte * nbytes
        if copy_cycles:
            yield from vm.vcpu.run(copy_cycles, copy_category)
        accepted = direction.tx.put(_Message(payload, nbytes))
        self._sending -= 1
        yield accepted

    def recv(self, vm, copy_category: str = OTHERS,
             stack_category: str = OTHERS):
        """Generator: receive the next message at endpoint ``vm``.

        Returns the payload object.  The kernel->user copy is charged to
        ``copy_category`` on the receiver vCPU.
        """
        if self.closed:
            raise ConnectionClosed("connection is closed")
        peer = self.peer_of(vm)
        direction = self._directions[peer.name]
        message = yield direction.rx.get()
        costs = self.network.costs
        segments = costs.segments(message.size)
        stack_cycles = (costs.virq_cycles + costs.syscall_cycles
                        + costs.tcp_rx_segment_cycles * segments)
        yield from vm.vcpu.run(stack_cycles, stack_category)
        copy_cycles = costs.tcp_copy_cycles_per_byte * message.size
        if copy_cycles:
            yield from vm.vcpu.run(copy_cycles, copy_category)
        return message.payload

    def close(self) -> None:
        """Close the connection: later ``send``/``recv`` raise ConnectionClosed.

        A connection closed idle is also torn down, so its processes and
        buffers can be freed.  Idle means: no message is buffered or being
        sent, both pipes wait for their next message, the server's handler
        waits in ``recv`` for the next request, and no other process waits
        on either end.  Then nothing can ever move on the connection
        again, so the two pipes and the handler are retired (see
        :meth:`~repro.sim.process.Process.retire`): no event is scheduled
        and ``is_alive`` turns False.  A connection closed in any other
        state is only marked closed: whatever is in flight still moves,
        and a peer that goes on to ``send`` or ``recv`` gets
        :class:`ConnectionClosed` (a datanode handler then ends the
        conversation).
        """
        self.closed = True
        if self._idle():
            for direction in self._directions.values():
                direction.tx.retire_getters()
            self._directions[self.vm_a.name].rx.retire_getters()

    def _idle(self) -> bool:
        """True when only the pipes and the server's handler are parked."""
        if self._sending:
            return False
        for direction in self._directions.values():
            for store in (direction.tx, direction.rx):
                if store.items or store._putters:
                    return False
            if direction.tx.parked_getters() != [direction.pipe]:
                return False
        if self._directions[self.vm_b.name].rx.parked_getters():
            return False
        handlers = self._directions[self.vm_a.name].rx.parked_getters()
        return (len(handlers) == 1 and handlers[0] is not None
                and not handlers[0].callbacks)

    def __repr__(self) -> str:
        return f"<TcpConnection {self.vm_a.name}<->{self.vm_b.name}>"


class VmNetwork:
    """The TCP/IP service tying VMs, vhost threads, and the LAN together."""

    def __init__(self, sim: Simulator, lan: Lan,
                 costs: Optional[CostModel] = None):
        self.sim = sim
        self.lan = lan
        self.costs = costs or lan.costs
        self._listeners: dict = {}

    def listen(self, vm, port: int) -> TcpListener:
        key = (vm.name, port)
        if key in self._listeners:
            raise SimulationError(f"{vm.name}:{port} already listening")
        listener = TcpListener(self, vm, port)
        self._listeners[key] = listener
        return listener

    def unlisten(self, vm, port: int) -> None:
        """Release a listen port (server VM shut down or removed)."""
        key = (vm.name, port)
        if key not in self._listeners:
            raise SimulationError(f"{vm.name}:{port} is not listening")
        del self._listeners[key]

    def connect(self, client_vm, server_vm, port: int,
                inflight_messages: int = 8):
        """Generator: three-way handshake; returns a :class:`TcpConnection`."""
        key = (server_vm.name, port)
        try:
            listener = self._listeners[key]
        except KeyError:
            raise SimulationError(f"connection refused: {server_vm.name}:{port}")
        costs = self.costs
        yield from client_vm.vcpu.run(costs.syscall_cycles, OTHERS)
        # SYN / SYN-ACK latency: one LAN round trip for remote peers.
        if client_vm.host is not server_vm.host:
            yield self.sim.timeout(2 * costs.lan_latency)
        connection = TcpConnection(self, client_vm, server_vm,
                                   inflight_messages)
        yield listener._backlog.put(connection)
        return connection
