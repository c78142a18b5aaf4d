"""Per-peer behavior tracking.

Each agent keeps one row per peer it has interacted with: a confidence
score in [0, 1]. Good interactions nudge confidence up linearly; violations
halve it, so three strikes from the default take a peer under the exclusion
threshold (0.5 -> 0.25 -> 0.125 -> 0.0625 < 0.1). Unavailability is not dishonesty: an offline peer is not
observed at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

DEFAULT_CONFIDENCE = 0.5
DEFAULT_BLACKLIST_THRESHOLD = 0.1
CONFIDENCE_REWARD = 0.05


class ObservationKind(enum.Enum):
    VALID_OK = "valid_ok"
    INVALID_DATA = "invalid_data"
    DOUBLE_SPEND = "double_spend"


VIOLATIONS = frozenset({ObservationKind.INVALID_DATA, ObservationKind.DOUBLE_SPEND})


@dataclass
class PeerRow:
    confidence: float = DEFAULT_CONFIDENCE


@dataclass
class ExperienceMatrix:
    """One agent's view of everyone it has dealt with."""

    blacklist_threshold: float = DEFAULT_BLACKLIST_THRESHOLD
    rows: dict[bytes, PeerRow] = field(default_factory=dict)

    def row(self, peer: bytes) -> PeerRow:
        entry = self.rows.get(peer)
        if entry is None:
            entry = PeerRow()
            self.rows[peer] = entry
        return entry


def update_experience(
    matrix: ExperienceMatrix, peer: bytes, observation: ObservationKind
) -> ExperienceMatrix:
    """Apply one observation about peer and return the matrix."""
    row = matrix.row(peer)
    if observation is ObservationKind.VALID_OK:
        row.confidence = min(1.0, row.confidence + CONFIDENCE_REWARD)
    elif observation in VIOLATIONS:
        row.confidence = row.confidence * 0.5
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown observation {observation}")
    return matrix


def is_blacklisted(matrix: ExperienceMatrix, peer: bytes) -> bool:
    """True once confidence in peer has dropped below the threshold."""
    row = matrix.rows.get(peer)
    if row is None:
        return False
    return row.confidence < matrix.blacklist_threshold
