"""2-D mesh topology with XY (dimension-ordered) routing.

Each node is one tile holding a core, its private L1, and one bank of the
shared L2.  A region's *home* tile (directory + L2 bank) is address
interleaved across the tiles.  Memory controllers sit at the four corner
tiles; an L2 miss travels from the home tile to the nearest controller.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError
from repro.common.params import NetworkConfig


class MeshTopology:
    """Hop counts and placement for a ``width x height`` mesh."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        self.nodes = self.width * self.height
        self._corners = self._corner_nodes()
        self._hops = self._precompute_hops()
        # Nearest controller per home tile; ties go to the lowest-numbered
        # corner (``min`` over the sorted corners keeps the first).
        self._memory_nodes = [
            min(self._corners, key=lambda c, row=row: row[c])
            for row in self._hops
        ]
        # Largest hop count any route can see (the far-corner diagonal);
        # lets observers preallocate value-indexed histograms.
        self.max_hops = (self.width - 1) + (self.height - 1)

    def _corner_nodes(self) -> List[int]:
        w, h = self.width, self.height
        return sorted({0, w - 1, (h - 1) * w, h * w - 1})

    def _precompute_hops(self) -> List[List[int]]:
        table = [[0] * self.nodes for _ in range(self.nodes)]
        for a in range(self.nodes):
            ax, ay = a % self.width, a // self.width
            for b in range(self.nodes):
                bx, by = b % self.width, b // self.width
                table[a][b] = abs(ax - bx) + abs(ay - by)
        return table

    # -- placement ---------------------------------------------------------

    def core_node(self, core: int) -> int:
        """Mesh node of a core's tile (cores are placed in node order)."""
        if core < 0 or core >= self.nodes:
            raise ConfigError(f"core {core} outside {self.nodes}-node mesh")
        return core

    def home_node(self, region: int) -> int:
        """Home tile (L2 bank + directory slice) of a region."""
        return region % self.nodes

    def memory_node(self, home: int) -> int:
        """Nearest memory controller (corner tile) to ``home``."""
        return self._memory_nodes[home]

    # -- distances ---------------------------------------------------------

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two nodes."""
        return self._hops[src][dst]

    def core_to_home(self, core: int, region: int) -> int:
        return self._hops[self.core_node(core)][self.home_node(region)]

    def core_to_core(self, a: int, b: int) -> int:
        return self._hops[self.core_node(a)][self.core_node(b)]

    def average_hops(self) -> float:
        """Mean hop distance over all distinct node pairs (diagnostics)."""
        total = sum(
            self._hops[a][b] for a in range(self.nodes) for b in range(self.nodes)
        )
        return total / float(self.nodes * self.nodes - self.nodes)
