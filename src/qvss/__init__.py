"""(n, n) quantum visual secret sharing: simulator, protocol, and CLI.

Each pixel of a binary secret image is encoded into an n-qubit parity
superposition state whose qubits are handed to n participants; all n must
cooperate (measure and XOR) to recover the pixel, while any smaller group
sees an exactly uniform distribution.  The package also ships the
classical pixel-expansion baseline the scheme improves on.
"""

from .baseline import (
    MatrixSets,
    Transparencies,
    build_nn_matrix_sets,
    classical_recover_image,
    classical_share_image,
    classical_share_pixel,
    comparison_report,
    decode_stacked,
    stack_and_weight,
)
from .circuit import CircuitDescription, Gate, emit_assembly, parse_assembly, simulate_circuit
from .errors import (
    FormatError,
    IncompleteSharesError,
    IntegrityError,
    QvssError,
    StateCorruptionError,
)
from .image_io import BinaryImage, from_pixel_list, read_pbm, write_pbm
from .parity import (
    ParitySpec,
    build_parity_circuit,
    build_xor_circuit,
    enumerate_parity_basis,
    prepare_parity_state_direct,
    xor_decode_classical,
)
from .protocol import (
    AuditReport,
    RegisterTable,
    SessionStore,
    ShareFile,
    audit_subset,
    deserialize_session,
    deserialize_share,
    measure,
    recover_image,
    serialize_session,
    serialize_share,
    share_image,
)
from .statevector import (
    StateVector,
    apply_cnot,
    apply_h,
    apply_toffoli,
    apply_x,
    apply_z,
    basis_state,
    marginal_distribution,
    measure_all,
    measure_shots,
    new_zero_state,
    probability_of,
    sample,
)

__version__ = "0.1.0"
