"""Output pins for every registry experiment at the quick profile.

Each digest is the SHA-256 of ``canonical_json`` of
``run_experiment(name, profile="quick", jobs=1, seed=0)``.  A change that
moves any byte of any experiment's output fails here; a change that is
meant to move one must re-pin it and say why.

The experiments whose time goes to the kernel, the scheduler and the
content plane are also run on the reference implementations (the sliced
scheduler and the legacy buffer plane) and must hit the same pins.
"""

import hashlib

import pytest

from repro.experiments import dfsio_sweep, registry
from repro.experiments.runner import canonical_json, run_experiment
from repro.hostmodel.cpu import legacy_slices
from repro.storage.content import legacy_buffers

QUICK_DIGESTS = {
    "fig02": "d8533d343b0f67cbe77fc7057ad3939c3985dc61603723bd63b37351950dffdc",
    "fig03": "4ade7ff3b7e466d9a304c41e30d48bd9b88322943d46198d03e6afda75b8ea05",
    "fig06": "3f012c2e3951a67eb03c48cb8bc305912e1e1a6e9b727fdc4b0f78d87cff4329",
    "fig07": "54530a91933193ea6e77df93d908c96d202ec705b6650790ab2fd5fe33a04890",
    "fig08": "52b55a82ff283a8abd9bc5862558255b06888b210677c05f544ca23d87669109",
    "fig09": "6dc5d9403851f2d423aed7b981419c7c469b234d6caf4f657ab7f772df1dffd7",
    "fig11": "61fde82d8ecea0542185f274acc761113f43861648cae86e83eee183bd6f5478",
    "fig12": "73474806902f2bd01b749ee806ea140e6752b490567478306d805b54b4f6155e",
    "fig13": "48c20920ef45e75510f19913f3b88b962986441281999285b50de8b9903b6448",
    "table2": "674871c1e8325781ffb0de1d2d2fb548a768b63604c9a02f87fb88d59701cb4e",
    "table3": "427a3ed0c0dac5c4c84059580b9a57d0ee714a3ab12fe321baf3097c7cf776a0",
    "ablation-direct-read": "2428fac982fe8e8cce5d84dad889d893f47f89a8fa1248072fd324779c61c35b",
    "ablation-transport": "4b8e28702941871113acaff8caac0ae0ab031856e87b6f16455b65144c9dadc3",
    "ablation-ring": "cc68444563ffbabae3357c9106871ae92f7e110d0aff31ee3aca1d9d8277485f",
    "ablation-packet-size": "2f6d53308bfcaf627e3cc5a7b795767056099401dd691ac2e50154bab466df81",
    "ablation-cache-size": "d95e77af684bd69d601e8ca5cf9ef732a0e3b52e074b4cde6aba2feaebd233c8",
    "ablation-storage-tiers": "09d39b2dc95a7ce5b62f6a8d66203ce60849f636dbcf4b16f31981d8e023d2cf",
    "scale-clients": "9372a1f076d3c7c0d29156ba71cd00bb5f055214271fecfff23ea328ef8c09c5",
    "scale-racks": "5a50af094b85d6b21b74c0a064035710800945d3548216c81b114cda98cf12b5",
    "scale-churn": "4db39dc171df8b3b292c578a4c6badc0e83233e60ffe74f070f1f21395057f25",
    "load-sweep": "edf42e3298380115c0ed554e0915d9616eb165e1e5dcd7b361a8e44f9ca7d16b",
    "scale-tenants": "a63d5e95e228748e45f385ad5815846d4b19d5b8e88595b5a6d9fba4cefc6485",
    "chaos-sweep": "fc76f47fccb743d55bee1ee1823969ab00c530c3f3da02d907d645d0305bb223",
    "sensitivity": "162d0d3da5ccb6d6d9f330dc52a77a0dc6a4864e1491e3341d0efade9ba70bce",
}


def test_every_registry_experiment_is_pinned():
    assert sorted(QUICK_DIGESTS) == sorted(registry.names())


@pytest.mark.parametrize("name", sorted(QUICK_DIGESTS))
def test_quick_profile_digest(name):
    result = run_experiment(name, profile="quick", jobs=1, seed=0)
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    assert digest == QUICK_DIGESTS[name]


@pytest.mark.parametrize("name", ["fig03", "fig11", "scale-racks"])
def test_quick_profile_digest_on_reference_paths(name):
    # The TestDFSIO cell memo would hand back cells measured on the fast
    # paths; drop it on the way in and out so neither run feeds the other.
    dfsio_sweep.clear_cache()
    try:
        with legacy_slices(), legacy_buffers():
            result = run_experiment(name, profile="quick", jobs=1, seed=0)
    finally:
        dfsio_sweep.clear_cache()
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    assert digest == QUICK_DIGESTS[name]
