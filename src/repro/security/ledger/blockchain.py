"""Proof-of-authority blockchain for device lifecycle events.

A small permissioned chain: named validators take turns sealing blocks of
pending transactions; block integrity is a SHA-256 hash chain over a
canonical serialization.  ``verify_chain`` detects any retroactive edit —
the audit property the paper wants from "track all the attributes,
relationships and events related to a device".
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.simkernel.digest import canonical_json, canonical_sha256


class LedgerError(Exception):
    pass


@dataclass(frozen=True)
class LifecycleEvent:
    """One transaction: something happened to a device."""

    device_id: str
    event: str  # manufactured | provisioned | activated | key_rotated | ...
    actor: str  # who performed/attested the event
    time: float
    data: Dict[str, Any] = field(default_factory=dict)

    def canonical(self) -> str:
        return canonical_json({
            "device_id": self.device_id,
            "event": self.event,
            "actor": self.actor,
            "time": self.time,
            "data": self.data,
        })


@dataclass
class Block:
    index: int
    previous_hash: str
    validator: str
    time: float
    transactions: List[LifecycleEvent]
    block_hash: str = ""

    def compute_hash(self) -> str:
        return canonical_sha256({
            "index": self.index,
            "previous_hash": self.previous_hash,
            "validator": self.validator,
            "time": self.time,
            "transactions": [tx.canonical() for tx in self.transactions],
        })


class Blockchain:
    def __init__(self, validators: List[str]) -> None:
        if not validators:
            raise LedgerError("need at least one validator")
        self.validators = list(validators)
        genesis = Block(0, "0" * 64, "genesis", 0.0, [])
        genesis.block_hash = genesis.compute_hash()
        self.blocks: List[Block] = [genesis]
        self.pending: List[LifecycleEvent] = []

    def submit(self, event: LifecycleEvent) -> None:
        self.pending.append(event)

    def seal_block(self, time: float) -> Optional[Block]:
        """Current validator seals all pending transactions; None if none."""
        if not self.pending:
            return None
        validator = self.validators[len(self.blocks) % len(self.validators)]
        block = Block(
            index=len(self.blocks),
            previous_hash=self.blocks[-1].block_hash,
            validator=validator,
            time=time,
            transactions=self.pending,
        )
        block.block_hash = block.compute_hash()
        self.pending = []
        self.blocks.append(block)
        return block

    def verify_chain(self) -> bool:
        """True when every hash link and block hash is intact."""
        for i, block in enumerate(self.blocks):
            if block.block_hash != block.compute_hash():
                return False
            if i > 0:
                previous = self.blocks[i - 1]
                if block.previous_hash != previous.block_hash:
                    return False
                if block.validator not in self.validators:
                    return False
        return True

    def events(self, device_id: Optional[str] = None) -> List[LifecycleEvent]:
        """All committed events, in chain order, optionally per device."""
        result: List[LifecycleEvent] = []
        for block in self.blocks:
            for tx in block.transactions:
                if device_id is None or tx.device_id == device_id:
                    result.append(tx)
        return result

    @property
    def height(self) -> int:
        return len(self.blocks)
