"""IPsec: ESP tunnel mode and SAs with anti-replay.

The paper's Table 1 workload is a strongSwan ESP tunnel-mode endpoint.
This package implements the per-packet machinery:

* :mod:`repro.ipsec.crypto` — HMAC-SHA256 authentication, a
  SHA-256-in-counter-mode keystream cipher (documented stand-in for
  AES; no crypto libraries are available offline) and the SA key
  derivation.
* :mod:`repro.ipsec.sa` — security associations: SPI, keys, sequence
  numbers, a 64-packet anti-replay window, lifetime counters.
* :mod:`repro.ipsec.esp` — RFC 4303 encapsulation/decapsulation in
  tunnel mode with real byte layouts.

The NF itself is :mod:`repro.nnf.plugins.strongswan`.  It runs no key
exchange: both tunnel endpoints derive matching SAs from the
pre-shared key and install them as kernel XFRM state
(:mod:`repro.linuxnet.xfrm`), which encrypts and decrypts on the
namespace forwarding path for every packaging flavor.
"""

from repro.ipsec.crypto import KeystreamCipher, derive_keys, hmac_sha256
from repro.ipsec.esp import EspError, esp_decapsulate, esp_encapsulate
from repro.ipsec.sa import ReplayError, SecurityAssociation, SpiAllocator

__all__ = [
    "EspError",
    "KeystreamCipher",
    "ReplayError",
    "SecurityAssociation",
    "SpiAllocator",
    "derive_keys",
    "esp_decapsulate",
    "esp_encapsulate",
    "hmac_sha256",
]
