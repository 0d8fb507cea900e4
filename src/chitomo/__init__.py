"""Selective chi-matrix estimation for n-qubit quantum channels.

The package simulates completely positive trace-preserving maps, builds the
MUB state 2-design, and estimates individual chi-matrix coefficients by the
randomized survival / ancilla-polarization protocols — with an exact
brute-force oracle to verify every estimate at desk scale.
"""

from .pauli import (
    DENSE_QUBIT_CAP,
    MUB_QUBIT_CAP,
    DenseCapError,
    MubClass,
    PauliLabel,
    all_labels,
    commutation_vector,
    label_from_index,
    label_index,
    mub_class,
    mub_classes,
    pauli_matrix,
    pauli_mul,
    solve_label_from_constraints,
    symplectic_product,
)
from .channels import (
    Channel,
    ChannelSpecError,
    KrausSet,
    PauliChannel,
    apply_channel,
    channel_factory,
    channel_spec_sha256,
    load_channel_spec,
    modified_channel_diag,
    superoperator,
)
from .mub import design_average_survival, design_basis
from .estimator import (
    Estimate,
    EstimatorConfig,
    TripletLogError,
    TripletRecord,
    estimate_chi_diag,
    estimate_chi_offdiag,
    estimate_diags_from_triplets,
    read_triplet_log,
    required_sample_size,
    run_triplet_experiments,
    sieve_large_diagonals,
    write_triplet_log,
)
from .oracle import (
    ChiMatrix,
    OracleReport,
    exact_average_fidelity,
    exact_chi,
    exact_chi_entries,
    exact_offdiag_average,
    haar_closed_form,
    oracle_report,
)

__version__ = "0.1.0"
