"""Simulated Intel SGX enclave hosting the similarity computation (§3.1, §4.4).

In the paper, clients send their *encrypted* class distributions to an SGX
enclave hosted by the federator; the enclave is remotely attested by the
clients, decrypts the distributions inside the trusted boundary, computes
the pair-wise EMD similarity matrix, and only the matrix leaves the
enclave.  The federator never observes a client's raw class distribution.

**Deviation from the paper.**  The paper's enclave releases the whole
``n x n`` matrix once, before training.  Here the enclave keeps the
decrypted distributions and the Aergia federator asks it, each round, for
the block of that round's cohort (:meth:`SGXEnclave.similarity_for`): a
subset of what the paper releases, every entry bitwise equal to the full
matrix's.  A round only ever reads its cohort's block, and the full matrix
is quadratic in the *population*: computing it as a Python loop over pairs
made an Aergia ``build_experiment`` take 1.2 s at 500 clients, 4.3 s at
``city`` (1 000) and 100 s at ``metro`` (5 000), against 0.10 s, 0.31 s
and 0.9 s now, and at ``continent`` the matrix alone would be 80 GB.  A
32-client cohort block takes 0.25 ms.
:meth:`SGXEnclave.similarity_matrix` still computes the paper's full
release, through the same kernel, for analysis code.

This module simulates that trusted execution environment:

* :meth:`SGXEnclave.attest` produces an :class:`AttestationReport` with the
  enclave's *measurement* (a hash of its code identity) and a public
  session key; clients verify the measurement against the expected value
  before trusting the enclave.
* Clients seal their class distribution with
  :func:`seal_distribution`, a keyed stream cipher (XOR with a
  key-derived pseudo-random stream).  This is *not* cryptographically
  strong — it stands in for the real attested TLS channel — but it enforces
  the same information-flow boundary inside the reproduction: untrusted
  code holding only the sealed blob cannot read the distribution without
  the enclave's session key.
* :meth:`SGXEnclave.submit_distribution` decrypts inside the enclave;
  :meth:`SGXEnclave.similarity_for` and
  :meth:`SGXEnclave.similarity_matrix` release only pair-wise distances.
  Any attempt to read raw distributions from outside raises
  :class:`EnclaveError`.

The substitution (simulated enclave instead of Graphene-SGX) is documented
in DESIGN.md §1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.similarity import ClientSimilarity, compute_similarity_matrix


#: The "measurement" (MRENCLAVE analogue) of the genuine similarity enclave.
EXPECTED_MEASUREMENT = hashlib.sha256(b"aergia-similarity-enclave-v1").hexdigest()


class EnclaveError(RuntimeError):
    """Raised when untrusted code violates the enclave's interface."""


@dataclass(frozen=True)
class AttestationReport:
    """The evidence a client checks before trusting the enclave."""

    measurement: str
    session_key: bytes

    def verify(self, expected_measurement: str = EXPECTED_MEASUREMENT) -> bool:
        """Whether the report matches the expected enclave identity."""
        return self.measurement == expected_measurement


@dataclass(frozen=True)
class SealedDistribution:
    """An encrypted class-distribution vector in transit to the enclave."""

    client_id: int
    ciphertext: bytes
    num_classes: int


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic pseudo-random keystream derived from key and nonce."""
    stream = b""
    counter = 0
    while len(stream) < length:
        stream += hashlib.sha256(key + nonce + counter.to_bytes(4, "big")).digest()
        counter += 1
    return stream[:length]


def _xor_keystream(data: bytes, key: bytes, client_id: int) -> bytes:
    """XOR ``data`` with the keystream of ``client_id`` (its own inverse)."""
    nonce = client_id.to_bytes(8, "big", signed=True)
    stream = _keystream(key, nonce, len(data))
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


def seal_distribution(
    client_id: int, class_counts: np.ndarray, report: AttestationReport
) -> SealedDistribution:
    """Encrypt a class-count vector for the attested enclave.

    Clients call this after verifying the attestation report; the federator
    only ever sees the resulting ciphertext.
    """
    if not report.verify():
        raise EnclaveError("refusing to seal data for an unverified enclave")
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("class_counts must be a one-dimensional vector")
    if np.any(counts < 0):
        raise ValueError("class counts cannot be negative")
    ciphertext = _xor_keystream(counts.tobytes(), report.session_key, client_id)
    return SealedDistribution(
        client_id=client_id, ciphertext=ciphertext, num_classes=int(counts.shape[0])
    )


class SGXEnclave:
    """The federator-hosted trusted execution environment.

    Only two things ever leave the enclave: attestation reports and
    pair-wise similarities (a cohort's block or the whole matrix).  The raw
    per-client distributions stay inside.
    """

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self._session_key = bytes(int(b) for b in rng.integers(0, 256, size=32))
        self._measurement = EXPECTED_MEASUREMENT
        self._distributions: Dict[int, np.ndarray] = {}
        self._matrix: Optional[ClientSimilarity] = None

    # ------------------------------------------------------------ attestation
    def attest(self) -> AttestationReport:
        """Produce the remote-attestation report clients verify."""
        return AttestationReport(measurement=self._measurement, session_key=self._session_key)

    # ------------------------------------------------------------- submission
    def submit_distribution(self, sealed: SealedDistribution) -> None:
        """Accept an encrypted class distribution from a client."""
        plaintext = _xor_keystream(sealed.ciphertext, self._session_key, sealed.client_id)
        if len(plaintext) % np.dtype(np.int64).itemsize != 0:
            raise EnclaveError(
                "sealed distribution failed integrity checks (truncated ciphertext)"
            )
        counts = np.frombuffer(plaintext, dtype=np.int64)
        if counts.shape[0] != sealed.num_classes:
            raise EnclaveError(
                "sealed distribution failed integrity checks (wrong length after decryption)"
            )
        if np.any(counts < 0):
            raise EnclaveError("sealed distribution failed integrity checks (negative counts)")
        self._distributions[sealed.client_id] = counts.copy()
        self._matrix = None  # invalidate the cached matrix

    @property
    def num_submissions(self) -> int:
        """How many clients have submitted their distribution."""
        return len(self._distributions)

    # ----------------------------------------------------------- computation
    def similarity_for(self, client_ids: Sequence[int]) -> ClientSimilarity:
        """The pair-wise similarities of ``client_ids``, in that order.

        What the federator asks for each round: the cohort's block of
        :meth:`similarity_matrix`, bitwise, computed from the submissions
        held right now (so a client that submitted after training started
        is included).  ``KeyError`` for a client that has not submitted.
        """
        if not self._distributions:
            raise EnclaveError("no client distributions have been submitted")
        return compute_similarity_matrix(self._distributions, client_ids)

    def similarity_matrix(self) -> ClientSimilarity:
        """Compute (or return the cached) similarity matrix of every client.

        The paper's one-off release; quadratic in the population, so the
        federator asks for :meth:`similarity_for` a cohort instead.
        """
        if not self._distributions:
            raise EnclaveError("no client distributions have been submitted")
        if self._matrix is None:
            self._matrix = compute_similarity_matrix(self._distributions)
        return self._matrix

    # ------------------------------------------------------------ information flow
    def __getattr__(self, name: str):
        # Note: __getattr__ is only called for attributes that are *not*
        # found through normal lookup, so internal methods keep working; this
        # guard documents and enforces the trusted boundary for typical
        # accidental accesses from federator code.
        if name in {"distributions", "raw_distributions", "class_counts"}:
            raise EnclaveError(
                "client class distributions never leave the enclave; "
                "use similarity_for() or similarity_matrix() instead"
            )
        raise AttributeError(name)
