"""Agent-centric ledger toolkit: per-agent signed chains, sharded validation,
capability-gated sharing, mutual-credit transfers, and a deterministic
network simulator for studying all of it under attack.
"""

from .chain import (
    DnaDocument,
    EntryTypeDef,
    Record,
    SourceChain,
    append_entry,
    encode_dna,
    export_records,
    init_chain,
    parse_chain_text,
    record_key,
    verify_chain,
    verify_records,
)
from .crypto import KeyPair, generate_keypair, hash_bytes, sign, verify
from .dht import Agent, Network, agent_seed, make_agent, make_agents
from .fuel import balance, settle
from .healthcare import (
    CapabilityGrant,
    DenialReason,
    VitalsReading,
    create_grant,
    healthcare_dna,
    publish_vitals,
    request_access,
    revoke_grant,
)
from .reputation import ExperienceMatrix, ObservationKind, is_blacklisted, update_experience
from .sim import ScenarioConfig, load_scenario, run_scenario
from .validation import (
    Marketplace,
    Reason,
    Verdict,
    authenticate_channel,
    validate_application,
    validate_transaction,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "CapabilityGrant",
    "DenialReason",
    "DnaDocument",
    "EntryTypeDef",
    "ExperienceMatrix",
    "KeyPair",
    "Marketplace",
    "Network",
    "ObservationKind",
    "Reason",
    "Record",
    "ScenarioConfig",
    "SourceChain",
    "Verdict",
    "VitalsReading",
    "agent_seed",
    "append_entry",
    "authenticate_channel",
    "balance",
    "create_grant",
    "encode_dna",
    "export_records",
    "generate_keypair",
    "hash_bytes",
    "healthcare_dna",
    "init_chain",
    "is_blacklisted",
    "load_scenario",
    "make_agent",
    "make_agents",
    "parse_chain_text",
    "publish_vitals",
    "record_key",
    "request_access",
    "revoke_grant",
    "run_scenario",
    "settle",
    "sign",
    "update_experience",
    "validate_application",
    "validate_transaction",
    "verify",
    "verify_chain",
    "verify_records",
]
