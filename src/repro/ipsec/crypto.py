"""Cryptographic primitives built on hashlib/hmac only.

**Substitution note**: the paper's strongSwan setup
uses AES for ESP encryption.  No AES implementation is available in the
offline environment's stdlib, so encryption here is a keystream cipher:

    block_i = SHA256(key || iv || counter_i)

XORed over the plaintext.  It has the two properties the reproduction
needs — the transform is length-preserving-modulo-padding and invertible
only with the key — while remaining a few lines of auditable code.  It
is NOT a secure cipher for production use (no claims about
indistinguishability are needed here: the experiments measure packet
processing paths, not cryptanalysis).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct

__all__ = ["KeystreamCipher", "derive_keys", "hmac_sha256"]

_BLOCK = 32  # SHA-256 digest size


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Full 32-byte HMAC-SHA256 tag."""
    return _hmac.new(key, data, hashlib.sha256).digest()


class KeystreamCipher:
    """Counter-mode keystream cipher over SHA-256 (AES stand-in)."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("cipher key must be at least 128 bits")
        self._key = key

    def _keystream(self, iv: bytes, length: int) -> bytes:
        blocks = []
        for counter in range((length + _BLOCK - 1) // _BLOCK):
            blocks.append(hashlib.sha256(
                self._key + iv + struct.pack("!Q", counter)).digest())
        return b"".join(blocks)[:length]

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        stream = self._keystream(iv, len(plaintext))
        return bytes(p ^ s for p, s in zip(plaintext, stream))

    # XOR keystream: decryption is the same operation.
    decrypt = encrypt


def derive_keys(shared_secret: bytes, nonce_i: bytes, nonce_r: bytes,
                spi: int) -> tuple[bytes, bytes]:
    """Derive (encryption_key, authentication_key) for one SA.

    HKDF-shaped: extract with the concatenated nonces as salt, then two
    labelled expansions.  Both tunnel endpoints call this with the same
    pre-shared key and inputs and obtain the same key material.
    """
    if not shared_secret:
        raise ValueError("empty shared secret")
    salt = nonce_i + nonce_r + struct.pack("!I", spi)
    prk = _hmac.new(salt, shared_secret, hashlib.sha256).digest()
    enc_key = _hmac.new(prk, b"ENCR" + b"\x01", hashlib.sha256).digest()
    auth_key = _hmac.new(prk, b"AUTH" + b"\x02", hashlib.sha256).digest()
    return enc_key, auth_key
