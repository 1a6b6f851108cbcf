"""Coherence message vocabulary and byte-size rules.

All control messages are 8 bytes (the paper's base-protocol metadata size).
Data-carrying messages add 8 bytes per payload word on top of an 8-byte
header; the header is accounted as control ("message and data identifiers",
paper Section 4.1), the payload as data.

Message types follow the paper: the Protozoa additions over MESI are the
``WBACK_LAST`` (LAST PUTX) notification and the non-overlapping
acknowledgment ``ACK_S`` (Table 3).
"""

from __future__ import annotations

import enum

from repro.common.params import CONTROL_MESSAGE_BYTES
from repro.common.addresses import WORD_BYTES


class MsgCategory(enum.Enum):
    """Control-traffic buckets of Figure 10 (+ data headers)."""

    REQ = "req"  # GETS / GETX / UPGRADE
    FWD = "fwd"  # forwarded requests / downgrades from the directory
    INV = "inv"  # invalidations
    ACK = "ack"  # ACK and ACK-S responses
    NACK = "nack"  # stale-sharer negative acknowledgments
    HDR = "hdr"  # headers of data-carrying messages (DATA / WBACK)


class MsgType(enum.Enum):
    """Every message the four protocols exchange."""

    GETS = ("GETS", MsgCategory.REQ, False)
    GETX = ("GETX", MsgCategory.REQ, False)
    UPGRADE = ("UPGRADE", MsgCategory.REQ, False)
    FWD_GETS = ("Fwd-GETS", MsgCategory.FWD, False)
    FWD_GETX = ("Fwd-GETX", MsgCategory.FWD, False)
    INV = ("INV", MsgCategory.INV, False)
    ACK = ("ACK", MsgCategory.ACK, False)
    ACK_S = ("ACK-S", MsgCategory.ACK, False)
    NACK = ("NACK", MsgCategory.NACK, False)
    DATA = ("DATA", MsgCategory.HDR, True)
    WBACK = ("WBACK", MsgCategory.HDR, True)
    WBACK_LAST = ("WBACK-LAST", MsgCategory.HDR, True)
    MEM_READ = ("MemRead", MsgCategory.REQ, False)  # home tile -> memory ctrl
    MEM_DATA = ("MemData", MsgCategory.HDR, True)  # memory ctrl -> home tile
    MEM_WRITE = ("MemWrite", MsgCategory.HDR, True)  # L2 eviction to memory

    def __init__(self, label: str, category: MsgCategory, carries_data: bool):
        self.label = label
        self.category = category
        self.carries_data = carries_data
        # Plain per-type facts read once per message by the engine's _send.
        self.category_key = category.value
        self.is_writeback = label in ("WBACK", "WBACK-LAST")
        #: The RunStats counter this message bumps, if any.
        self.stats_counter = {"INV": "invalidations_sent",
                              "Fwd-GETX": "invalidations_sent",
                              "NACK": "nacks", "ACK-S": "ack_s"}.get(label)

    def size_bytes(self, payload_words: int = 0) -> int:
        """Total on-wire bytes for this message."""
        if payload_words and not self.carries_data:
            raise ValueError(f"{self.label} cannot carry data")
        return CONTROL_MESSAGE_BYTES + payload_words * WORD_BYTES
