"""Shared test helpers importable from any test module.

Kept out of ``conftest.py`` so call sites can use a plain ``from helpers
import small_network`` — relative imports of conftest break under
pytest's rootdir-based collection (no ``__init__.py`` packages here).
"""

from __future__ import annotations

import random

from repro.sim.engine import Engine
from repro.sim.link import Cable
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import Packet
from repro.sim.port import EgressPort
from repro.sim.switch import Switch
from repro.sim.topology import TopologyParams
from repro.sim.units import NS


def small_network(lb: str = "reps", *, n_hosts: int = 8,
                  hosts_per_t0: int = 4, seed: int = 1,
                  **cfg_kwargs) -> Network:
    """An 8-host, 2-ToR network — big enough for multipath, fast to run."""
    topo_kwargs = {}
    for key in ("tiers", "oversubscription", "trim_enabled", "mtu_bytes",
                "link_gbps", "host_link_gbps", "switch_mode",
                "t0s_per_pod", "t2s_per_t1", "queue_capacity_bytes"):
        if key in cfg_kwargs:
            topo_kwargs[key] = cfg_kwargs.pop(key)
    topo = TopologyParams(n_hosts=n_hosts, hosts_per_t0=hosts_per_t0,
                          **topo_kwargs)
    return Network(NetworkConfig(topo=topo, lb=lb, seed=seed, **cfg_kwargs))


def make_switch(engine: Engine, n_up: int = 8, mode: str = "ecmp",
                seed: int = 7):
    """A standalone switch with ``n_up`` cabled uplinks for routing tests."""
    sw = Switch("t0", 0, salt=12345, rng=random.Random(seed), mode=mode)
    ports = []
    for i in range(n_up):
        p = EgressPort(engine, f"up{i}", rate_gbps=400,
                       latency_ps=500 * NS, capacity_bytes=1 << 20,
                       kmin_bytes=1 << 18, kmax_bytes=1 << 19,
                       rng=random.Random(seed + i))
        cable = Cable(f"c{i}")
        rev = EgressPort(engine, f"rev{i}", rate_gbps=400,
                         latency_ps=500 * NS, capacity_bytes=1 << 20,
                         kmin_bytes=1, kmax_bytes=2,
                         rng=random.Random(seed))
        cable.attach(p, rev)
        ports.append(p)
    sw.up_ports = ports
    return sw, ports


def pkt(src: int = 0, dst: int = 100, ev: int = 0) -> Packet:
    return Packet(src=src, dst=dst, flow_id=0, seq=0, size=4096, ev=ev)


# ----------------------------------------------------------------------
# campaign/report stubs: tiny figures over the footprint model
# ----------------------------------------------------------------------
def footprint_task(buffer_size: int, seed: int = 1):
    from repro.harness.sweep import make_model_task
    return make_model_task("footprint", seed=seed,
                           buffer_size=buffer_size, evs_size=65536)


def stub_spec(fig_id: str, buffers=(1, 8), check=None, build=None):
    """A tiny, fast FigureSpec over the footprint model."""
    from repro.scenarios import FigureSpec

    def default_build():
        return {b: footprint_task(b) for b in buffers}
    return FigureSpec(
        fig_id=fig_id, figure="Stub", title=f"stub {fig_id}",
        build=build or default_build, metric="total_bits",
        check=check, tags=("stub",))


def stub_registry():
    """Three healthy figures; the middle one shares a task with the
    first (cross-figure dedup), the last declares no check (warn)."""
    def check_ok(result):
        keys = sorted(result.keys())
        assert result.value(keys[-1]) > result.value(keys[0])
    return [
        stub_spec("stub_a", buffers=(1, 8), check=check_ok),
        stub_spec("stub_b", buffers=(8, 16), check=check_ok),
        stub_spec("stub_c", buffers=(2,)),  # no check -> warn
    ]


#: a format-2 segment (``REPSEG02`` + one ``BLK1`` frame holding key
#: ``"ab" * 12``), captured from the retired v2 writer
V2_SEGMENT = bytes.fromhex(
    "5245505345473032424c4b31950000005579ab6f01000000789c754e410ac2"
    "30108cf527731372f39693ff2845b6e9aaa5094a12c112f2631fe1d61615d1"
    "d9c3ecce2c3b7b574a650c3035a8fd5d6834822c64447b624f305b8dd87b18"
    "d82f4063e0518cbfb734124589cb70d4b29355c747b2238a86e7147a1bc594"
    "816f29d0d41689b7125fbf7c8d2e9c2f1347f9ed533fd8b4bfbe8d67940ccc"
    "ddac35a5520bd6336d76d56a511e934e4ef2")
