"""Datanode block scanner: background integrity verification.

Real datanodes run a low-priority scanner that periodically re-reads block
files and verifies their checksums, reporting corrupt replicas to the
namenode.  Here, each datanode stores the expected SHA-256 of every block
at write time (the checksum sidecar file); the scanner re-reads blocks on a
cycle, charges verification CPU, and on a mismatch tells the namenode to
drop the replica — which the :class:`~repro.hdfs.replication
.ReplicationMonitor`'s machinery (or a re-read from another replica) then
covers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hdfs.datanode import Datanode
from repro.metrics.accounting import OTHERS
from repro.storage.filesystem import FsError, InodeRangeSource


class BlockScanner:
    """Periodic integrity scanning for one datanode."""

    def __init__(self, datanode: Datanode, scan_interval: float = 5.0,
                 verify_cycles_per_byte: float = 0.3):
        self.datanode = datanode
        self.scan_interval = scan_interval
        self.verify_cycles_per_byte = verify_cycles_per_byte
        #: block name -> expected digest, recorded at write/commit time.
        self._expected: Dict[str, str] = {}
        self.scans = 0
        self.corruptions_found: List[str] = []
        self._running = False
        datanode.namenode.add_observer(self._on_event)

    # ------------------------------------------------------------- recording
    def _on_event(self, event: str, block, datanode_id: str) -> None:
        if datanode_id != self.datanode.datanode_id:
            return
        if event == "commit":
            path = self.datanode.block_path(block.name)
            try:
                block_file = InodeRangeSource(
                    self.datanode.vm.guest_fs.lookup(path))
            except FsError:
                return
            self._expected[block.name] = block_file.checksum()
        elif event == "delete":
            self._expected.pop(block.name, None)

    # -------------------------------------------------------------- scanning
    def start(self) -> None:
        if self._running:
            raise RuntimeError("scanner already running")
        self._running = True
        self.datanode.vm.sim.process(self._scan_loop())

    def stop(self) -> None:
        self._running = False

    def _scan_loop(self):
        sim = self.datanode.vm.sim
        while self._running:
            yield sim.timeout(self.scan_interval)
            if not self._running:
                return
            yield from self.scan_once()

    def scan_once(self):
        """Generator: verify every tracked block once."""
        vm = self.datanode.vm
        for block_name, expected in list(self._expected.items()):
            if not self._running and self.scans > 0:
                return
            path = self.datanode.block_path(block_name)
            try:
                source = yield from vm.read_file(path)
            except FsError:
                self._report_corrupt(block_name, "missing")
                continue
            yield from vm.vcpu.run(
                self.verify_cycles_per_byte * source.size, OTHERS)
            if source.checksum() != expected:
                self._report_corrupt(block_name, "checksum mismatch")
        self.scans += 1

    def _report_corrupt(self, block_name: str, reason: str) -> None:
        """Drop this replica from the namenode's location list."""
        self.corruptions_found.append(block_name)
        self._expected.pop(block_name, None)
        try:
            block = self.datanode.namenode.block_by_name(block_name)
        except Exception:
            return
        if self.datanode.datanode_id in block.locations:
            block.locations.remove(self.datanode.datanode_id)

    def __repr__(self) -> str:
        return (f"<BlockScanner {self.datanode.datanode_id} "
                f"tracked={len(self._expected)} scans={self.scans} "
                f"corrupt={len(self.corruptions_found)}>")
