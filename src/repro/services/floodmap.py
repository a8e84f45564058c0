"""Flood-extent mapping — a second derived-data service.

The paper's introduction motivates the cache with disaster-response map
services ("on-demand geotagged maps of the disaster area to help guide
relief efforts").  Shoreline extraction traces the waterline; this
service answers the other question responders ask: *how much of the tile
is under water, and where?*

Given ``(x, y, t)`` it synthesizes the same CTM tile, evaluates the water
level, and computes the **inundation mask** — connected flooded regions,
their areas, and the deepest point — a real flood-fill computation with a
deterministic, compact serialized result, exactly the observable
signature the cache needs.  Sharing the CTM/water substrates with the
shoreline service also makes composite "disaster dashboard" workflows
meaningful: both services derive from the same tiles but produce distinct
cacheable results.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.services.base import Service
from repro.services.ctm import CoastalTerrainModel
from repro.services.waterlevel import WaterLevelModel
from repro.sfc.btwo import Linearizer
from repro.sim.clock import SimClock


def flood_regions(elevation: np.ndarray, level: float) -> list[dict]:
    """Connected flooded regions of a terrain tile.

    Returns one dict per region (sorted by area, largest first) with
    ``cells``, ``fraction`` of the tile, ``max_depth_m``, and the
    region's centroid ``(row, col)``.
    """
    from scipy import ndimage  # 0.4 s to import; only this call needs it

    flooded = elevation < level
    labels, count = ndimage.label(flooded)
    regions = []
    for region_id in range(1, count + 1):
        mask = labels == region_id
        cells = int(mask.sum())
        depth = float((level - elevation[mask]).max())
        rows, cols = np.nonzero(mask)
        regions.append({
            "cells": cells,
            "fraction": cells / elevation.size,
            "max_depth_m": depth,
            "centroid": (float(rows.mean()), float(cols.mean())),
        })
    regions.sort(key=lambda r: -r["cells"])
    return regions


class FloodMapService(Service):
    """Inundation analysis over the synthetic CTM archive.

    Examples
    --------
    >>> from repro.sim import SimClock
    >>> svc = FloodMapService(SimClock(), linearizer=Linearizer(nbits=5))
    >>> result = svc.execute(svc.linearizer.encode(2, 3, 4))
    >>> report = svc.deserialize(result.payload)
    >>> 0.0 <= report["flooded_fraction"] <= 1.0
    True
    """

    def __init__(
        self,
        clock: SimClock,
        linearizer: Linearizer | None = None,
        ctm: CoastalTerrainModel | None = None,
        water: WaterLevelModel | None = None,
        service_time_s: float = 23.0,
        result_footprint_bytes: int | None = 1024,
        name: str = "flood-map",
    ) -> None:
        super().__init__(name, clock, service_time_s)
        self.linearizer = linearizer or Linearizer()
        self.ctm = ctm or CoastalTerrainModel()
        self.water = water or WaterLevelModel()
        self.result_footprint_bytes = result_footprint_bytes

    def compute(self, key: int) -> tuple[bytes, int]:
        """Decode, synthesize, flood-fill, summarize."""
        x, y, t = self.linearizer.decode(key)
        tile = self.ctm.tile(x, y)
        level = self.water.level(t)
        regions = flood_regions(tile.elevation, level)
        payload = self.serialize(level, tile.elevation.size, regions)
        nbytes = self.result_footprint_bytes
        if nbytes is None:
            nbytes = len(payload)
        return payload, nbytes

    @staticmethod
    def serialize(level: float, tile_cells: int, regions: list[dict]) -> bytes:
        """Pack the flood report: header + per-region records."""
        out = bytearray(struct.pack("<fII", level, tile_cells, len(regions)))
        for region in regions:
            out += struct.pack("<Iff2f", region["cells"],
                               region["fraction"], region["max_depth_m"],
                               *region["centroid"])
        return bytes(out)

    @staticmethod
    def deserialize(payload: bytes) -> dict:
        """Invert :meth:`serialize` into a summary dict."""
        level, tile_cells, count = struct.unpack_from("<fII", payload, 0)
        regions = []
        offset = struct.calcsize("<fII")
        step = struct.calcsize("<Iff2f")
        for _ in range(count):
            cells, fraction, depth, cy, cx = struct.unpack_from("<Iff2f",
                                                                payload, offset)
            regions.append({"cells": cells, "fraction": fraction,
                            "max_depth_m": depth, "centroid": (cy, cx)})
            offset += step
        return {
            "water_level_m": level,
            "tile_cells": tile_cells,
            "regions": regions,
            "flooded_fraction": sum(r["fraction"] for r in regions),
        }
