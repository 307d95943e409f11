"""Deterministic simulator and analysis toolkit for a large-payload
bidirectional quantum secure direct communication protocol built on
entanglement swapping between GHZ states."""

from .adversary import (AttackConfig, CheckTemplate, DetectionEstimate,
                        estimate_detection, exact_detection_probability)
from .codebook import (CompositeOp, apply_composite, classify_ghz, ghz_state,
                       invert_transform, message_to_op, transform_label,
                       verify_transform_table)
from .labels import BellLabel, CollectionLabel, GhzLabel
from .protocol import (Session, SessionConfig, SessionTranscript, run_session)
from .qcore import (MeasBasis, Rng, StateVector, born_distribution, make_basis_state,
                    measure, tensor)
from .swap import (BellTriple, collection_of, collection_table,
                   swap_distribution, verify_swap_table)

__version__ = "0.2.0"
