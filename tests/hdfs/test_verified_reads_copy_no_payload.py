"""Checksum-verified reads resolve to the writer's digest, copying nothing.

A multi-block file written from one ``PatternSource`` comes back from a
read as views of the datanodes' block files: a concat of per-call concats
of packet views on the vanilla path, a concat of block-file slices on the
vRead path, and block files of different datanodes spliced together once
the nearest replica is gone.  Each of these resolves to one whole window of
the payload, so verifying the read must not synthesize a single payload
byte: ``PatternSource.readinto`` is patched to raise.
"""

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.storage.content import PatternSource

BLOCK = 1 << 20


def _no_payload_bytes(self, offset, buf):
    raise AssertionError("payload bytes synthesized during a verified read")


def test_verified_reads_resolve_to_the_payload_digest(monkeypatch):
    monkeypatch.setattr(PatternSource, "readinto", _no_payload_bytes)
    cluster = VirtualHadoopCluster(topology=rack_cluster(2, 2),
                                   block_size=BLOCK, replication=3,
                                   vread=True)
    payload = PatternSource(4 * BLOCK + 12345, seed=11)

    def load():
        yield from cluster.write_dataset("/f", payload)

    cluster.run(cluster.sim.process(load()))
    cluster.settle()

    def read(mode):
        client = cluster.clients.get(mode=mode)

        def proc():
            return (yield from client.read_file("/f", 1 << 20))

        return cluster.run(cluster.sim.process(proc()))

    for mode in ("vanilla", "vread"):
        source = read(mode)
        assert source.size == payload.size
        assert source.checksum() == payload.checksum()

    # Without the co-located replica, blocks come from the remote rack's
    # datanodes, whichever each block lists first: not all the same one.
    local = cluster.datanodes[0]
    assert all(block.locations[0] == local.datanode_id
               for block in cluster.namenode.get_blocks("/f"))
    local.stop()
    policy = cluster.namenode.policy
    serving = {
        policy.rank_read_replicas(cluster.client_vm, [
            dn for dn in block.locations if dn != local.datanode_id])[0]
        for block in cluster.namenode.get_blocks("/f")}
    assert len(serving) > 1

    source = read("vanilla")
    assert source.size == payload.size
    assert source.checksum() == payload.checksum()
