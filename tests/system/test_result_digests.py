"""Pinned result digests: the miss path's rewrites change no result byte.

Each digest is the sha256 of ``_serialize_result`` (the compact wire and
cache form of a :class:`~repro.system.results.RunResult`) for one cell at
16 cores x 200 accesses per core, seed 0, recorded before the route-count
accountant, the single overlap scan, the slice-built install and the
closed-form predictor replaced their per-message and per-word versions.
The variants cover the 32- and 128-byte regions of the Table 1 sweep, 3-hop
forwarding, and golden-value checking (which also pins the scalar issue
loop, since value checking turns batching off).
"""

import dataclasses
import hashlib

import pytest

from repro.common.params import ProtocolKind, SystemConfig
from repro.experiments._engine import _serialize_result
from repro.system.machine import simulate
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

WORKLOADS = ("canneal", "linear-regression", "apache")
VARIANTS = ("base", "block32", "block128", "three_hop", "check_values")

PINNED = {
    "base/canneal/mesi":
        "1930a1aa126963601d43c13812609f7f09f29b45225a1a82d708fb8ce00bf834",
    "base/canneal/protozoa-sw":
        "f8cc2e79ffb5ec5fea9662e7a6c7f99b4f913edfa9c7000058f080e76f71fc82",
    "base/canneal/protozoa-sw+mr":
        "60feb735e04e6dc1ab4b653f7b504806fb9903800e84407538ad4fe1357ba4a0",
    "base/canneal/protozoa-mw":
        "073b835094ba4c107a9bfad67ab31ba21661cbddb848d2d5951a24da1c0e98cb",
    "base/linear-regression/mesi":
        "b19ab5b9792bb361d65464e2b1bb8ab2c65435832291323206a2e848c89047dd",
    "base/linear-regression/protozoa-sw":
        "48d36d484d85b5361fd5a43179a22ebff2e74ab1b71dc27aa49337f9423636ba",
    "base/linear-regression/protozoa-sw+mr":
        "9d0debf23ce3ee34eb31f8ecef6f7126f1084531741e11bc8d0d9d2f28cbb7d4",
    "base/linear-regression/protozoa-mw":
        "70bb231197f2054ee37f304dcbb4a56d9f22e1a3b9432f0c2c677bdc68ad069e",
    "base/apache/mesi":
        "89f4fec605bf77b78bda7079f2931b5d50d9b165ee3d3a24577e84bc407d7bcd",
    "base/apache/protozoa-sw":
        "a08d4b9080c24cd5caca44dc04936c5e4de0ea0f9baad944145f0187ce95f3d4",
    "base/apache/protozoa-sw+mr":
        "dccdb44bd7852c8618ed4bb45adbe63218979d7f91989f3b34b0f18a957fe325",
    "base/apache/protozoa-mw":
        "8351c8ab91eebb708c7c95544753ec16d31bca120ca43a87f9041a4589fd2894",
    "block32/canneal/mesi":
        "b6e80d4db9a736e1b276d6ed63d47c25180c44d717d2e530cbc5558f6860d753",
    "block32/canneal/protozoa-sw":
        "8d528e572eafaa3a486acee8f0da1d0c7d003e367ce214e831ef7a0a4d3ff598",
    "block32/canneal/protozoa-sw+mr":
        "7f6a59001e651be15d9f7ed9cec98d19c97a0137ba07d7562da5865bde66932c",
    "block32/canneal/protozoa-mw":
        "5a1baee8b6c5cdf61715680eff691783a02564ef5ed4f27355af7db5988f785e",
    "block32/linear-regression/mesi":
        "d02f9fc436cf5da4574075e8c5d8bad30f4ee865934ee1aba76b7b10de94cf53",
    "block32/linear-regression/protozoa-sw":
        "f99dc9d413d60c0d155c5a93fb3f12126a8b86d29da6f72ee1e63d0a81a646ef",
    "block32/linear-regression/protozoa-sw+mr":
        "435ad4fc531e16282eaa9cca3bbef29d1b261af4641d4dc58a5259ac3dfc2aa5",
    "block32/linear-regression/protozoa-mw":
        "8f1273c3297050d023559b73892b06644cac5bdd3ca4f1e8abc0eb27e0e4d479",
    "block32/apache/mesi":
        "7a07ebb19590eae70e7470e4aeb73042b28e6c1321d4f893adf288d2cb94bb0d",
    "block32/apache/protozoa-sw":
        "4b8aa5c81a3a0318832cdc60a977da07cf1fb57ae48a1203daf167ac5a71c20d",
    "block32/apache/protozoa-sw+mr":
        "7e9ac0c6d2472bb2a683e8d9c74bb037362effb6a536dbd7d0db5f86bf1bea71",
    "block32/apache/protozoa-mw":
        "a7039d4c05904ff3d220f88d499710e430dc22e0bfe806d27cc8c0dbc467f40a",
    "block128/canneal/mesi":
        "a5394e5882d23dd018d91b49383a10f56e22101341d683046af27fb103746a4a",
    "block128/canneal/protozoa-sw":
        "ead974643f5af4d1b5d92409c79297ae2a46f43e40707a83fa5824e020912044",
    "block128/canneal/protozoa-sw+mr":
        "6a6c6f3a78122b7982ca20efe3a160d1002ce74059cc88b6149c43e6dcfe61b2",
    "block128/canneal/protozoa-mw":
        "e870d765157dc49735ab74673233bfcfa7e652a727c633be885fc261600b2cf2",
    "block128/linear-regression/mesi":
        "6864675438bcc5f5226788cd212f4cf81edb81a0a44a693e3bef5e8825382797",
    "block128/linear-regression/protozoa-sw":
        "9a6e3bc8505e3092d96008020d83503ff3f4a1ad4063048d6d98e6703482def3",
    "block128/linear-regression/protozoa-sw+mr":
        "c6a9cb1be0d3637fd9682cdf25e48ca4e0a0fab70488938e94d4458bd67d01ae",
    "block128/linear-regression/protozoa-mw":
        "9133074df56249f90efd71d62df95710cd28c260a9bf8acfb0b1f4f064504224",
    "block128/apache/mesi":
        "ee91f1164579ee84f5e5ecb24e657757d44452529ea1a9de7978513a42088709",
    "block128/apache/protozoa-sw":
        "e4b2487bde6865335a15ec095030b28472f0ecf4be5e4bbe4e307f373a01430d",
    "block128/apache/protozoa-sw+mr":
        "32eb6e68b363948a64842e0dcbe079a36f83b63219bcb332887a1b318c8a0396",
    "block128/apache/protozoa-mw":
        "751001e22c3e05e50b6ce9e6c14f7e2e9b079b858e0fc18c2d7baa6c4bd75b0d",
    "three_hop/canneal/mesi":
        "bfbcdb26a193abf0a08d88593821a4504df06fa558603407f8342fed9ea45060",
    "three_hop/canneal/protozoa-sw":
        "5ad711f9c47ce7782cbb391a93b0cdf25d00703418b79518503f5e1b925d9488",
    "three_hop/canneal/protozoa-sw+mr":
        "4ffadee006f1b6ebc05378a4c694e7b74ade190428620a2e9899e386ac13976c",
    "three_hop/canneal/protozoa-mw":
        "77682ca2b9eb1bda94b16094a6614221131ca0b2cdb4e3b4b038e30f12ab3fab",
    "three_hop/linear-regression/mesi":
        "750270dc4bbdade7d03b81846b378344832a967ded5d3a3a25f84512f06e9521",
    "three_hop/linear-regression/protozoa-sw":
        "914f373e78310659fc2063f5684684e3f744c4eacbdf5f1e1305e18cf581a2ed",
    "three_hop/linear-regression/protozoa-sw+mr":
        "267585a964e7e1006750b1e6ad9418d97128ef2571b1330454d2c4e2e7f906a8",
    "three_hop/linear-regression/protozoa-mw":
        "a262848753a6cd10a79972b32828514e74922bdefc35208b91e763ab2df1c613",
    "three_hop/apache/mesi":
        "7520dc728c8ba8b8f94bde408aeeffb3d3ae989b292e12054c861d33ef7c7f06",
    "three_hop/apache/protozoa-sw":
        "ae29ff12b7b5e70c0b16921abd58b600cf19b4391606b9db94a3c968b47e3ce3",
    "three_hop/apache/protozoa-sw+mr":
        "2f027a6cf19a6a64738fa3666a4909726b648cb2dc2874b44fc5c607e522fd65",
    "three_hop/apache/protozoa-mw":
        "5620ef07582a8d5240d90fd8605b7d8f3fad95112c52cd4f5a77179fa3474be3",
    "check_values/canneal/mesi":
        "1930a1aa126963601d43c13812609f7f09f29b45225a1a82d708fb8ce00bf834",
    "check_values/canneal/protozoa-sw":
        "f8cc2e79ffb5ec5fea9662e7a6c7f99b4f913edfa9c7000058f080e76f71fc82",
    "check_values/canneal/protozoa-sw+mr":
        "60feb735e04e6dc1ab4b653f7b504806fb9903800e84407538ad4fe1357ba4a0",
    "check_values/canneal/protozoa-mw":
        "073b835094ba4c107a9bfad67ab31ba21661cbddb848d2d5951a24da1c0e98cb",
    "check_values/linear-regression/mesi":
        "b19ab5b9792bb361d65464e2b1bb8ab2c65435832291323206a2e848c89047dd",
    "check_values/linear-regression/protozoa-sw":
        "48d36d484d85b5361fd5a43179a22ebff2e74ab1b71dc27aa49337f9423636ba",
    "check_values/linear-regression/protozoa-sw+mr":
        "9d0debf23ce3ee34eb31f8ecef6f7126f1084531741e11bc8d0d9d2f28cbb7d4",
    "check_values/linear-regression/protozoa-mw":
        "70bb231197f2054ee37f304dcbb4a56d9f22e1a3b9432f0c2c677bdc68ad069e",
    "check_values/apache/mesi":
        "89f4fec605bf77b78bda7079f2931b5d50d9b165ee3d3a24577e84bc407d7bcd",
    "check_values/apache/protozoa-sw":
        "a08d4b9080c24cd5caca44dc04936c5e4de0ea0f9baad944145f0187ce95f3d4",
    "check_values/apache/protozoa-sw+mr":
        "dccdb44bd7852c8618ed4bb45adbe63218979d7f91989f3b34b0f18a957fe325",
    "check_values/apache/protozoa-mw":
        "8351c8ab91eebb708c7c95544753ec16d31bca120ca43a87f9041a4589fd2894",
}


def config_for(protocol: ProtocolKind, variant: str) -> SystemConfig:
    config = SystemConfig(protocol=protocol, cores=16)
    if variant.startswith("block"):
        size = int(variant[len("block"):])
        return dataclasses.replace(config, region_bytes=size, block_bytes=size)
    if variant == "three_hop":
        return dataclasses.replace(config, three_hop=True)
    if variant == "check_values":
        return dataclasses.replace(config, check_values=True)
    return config


@pytest.fixture(scope="module")
def traces():
    return {name: PackedTrace.from_streams(
        build_streams(name, cores=16, per_core=200, seed=0))
        for name in WORKLOADS}


def test_every_cell_is_pinned():
    assert sorted(PINNED) == sorted(
        f"{variant}/{name}/{kind.value}" for variant in VARIANTS
        for name in WORKLOADS for kind in ProtocolKind)


@pytest.mark.parametrize("variant", VARIANTS)
def test_result_bytes_unchanged(traces, variant):
    mismatched = []
    for name in WORKLOADS:
        for kind in ProtocolKind:
            result = simulate(traces[name], config_for(kind, variant),
                              name=name, obs=False)
            digest = hashlib.sha256(
                _serialize_result(result).encode()).hexdigest()
            key = f"{variant}/{name}/{kind.value}"
            if digest != PINNED[key]:
                mismatched.append(key)
    assert not mismatched
