"""LoRa physical-layer timing.

Implements the Semtech time-on-air formula for SX127x-class modems:
symbol duration from spreading factor and bandwidth, payload symbol
count from header/CRC/coding-rate settings, and total packet airtime
including the preamble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Largest payload the modem length field can describe.
MAX_PHY_PAYLOAD_BYTES = 255

#: Framing overhead (MHDR + FHDR + FPort + MIC) added to an application
#: payload when it is re-encapsulated as a LoRaWAN uplink.
LORAWAN_OVERHEAD_BYTES = 12

# Longest symbol an SX127x modem sends without low data rate
# optimization (SX1276 datasheet).
_LDRO_SYMBOL_S = 0.016


@dataclass(frozen=True)
class RadioParams:
    """LoRa modem settings shared by every node in a network.

    Defaults match a typical EU868 sub-band profile: SF9, 125 kHz,
    coding rate 4/5, 8-symbol preamble, explicit header, CRC on,
    low-data-rate optimization off.
    """

    spreading_factor: int = 9
    bandwidth_hz: float = 125_000.0
    coding_rate_denominator: int = 5
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    low_data_rate_opt: bool = False

    def __post_init__(self) -> None:
        if not 6 <= self.spreading_factor <= 12:
            raise ValueError(f"spreading factor {self.spreading_factor} outside 6..12")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth must be finite and positive")
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ValueError(
                f"coding rate denominator {self.coding_rate_denominator} outside 5..8"
            )
        if self.preamble_symbols < 1:
            raise ValueError("preamble needs at least one symbol")


def symbol_time(params: RadioParams = RadioParams()) -> float:
    """Duration of one LoRa symbol in seconds: 2**SF / BW."""
    return float(2**params.spreading_factor) / params.bandwidth_hz


def check_modem(params: RadioParams) -> None:
    """Raise ValueError, naming the setting first, for settings no SX127x
    modem can run: SF6 needs an implicit header, and a symbol longer than
    16 ms needs low data rate optimization.

    Not a ``RadioParams`` invariant, so such settings can still be priced.
    """
    if params.spreading_factor == 6 and params.explicit_header:
        raise ValueError("explicit_header: must be false at SF6, which has no explicit header")
    t_sym = symbol_time(params)
    if t_sym > _LDRO_SYMBOL_S and not params.low_data_rate_opt:
        raise ValueError(
            f"low_data_rate_opt: must be true: a {t_sym * 1e3:.3f} ms symbol "
            f"exceeds the {_LDRO_SYMBOL_S * 1e3:.0f} ms past which the modem requires it"
        )


def time_on_air(payload_bytes: int, params: RadioParams = RadioParams()) -> float:
    """Airtime in seconds of a packet carrying ``payload_bytes`` of PHY payload.

    Counts the preamble (n_preamble + 4.25 symbols) plus 8 header symbols
    plus the coded payload block. Raises ValueError for payload sizes the
    modem cannot encode.
    """
    if not isinstance(payload_bytes, int):
        raise TypeError("payload_bytes must be an int")
    if payload_bytes < 0:
        raise ValueError("payload size cannot be negative")
    if payload_bytes > MAX_PHY_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {payload_bytes} B exceeds the {MAX_PHY_PAYLOAD_BYTES} B modem limit"
        )
    sf = params.spreading_factor
    de = 1 if params.low_data_rate_opt else 0
    ih = 0 if params.explicit_header else 1
    crc = 1 if params.crc_on else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    denominator = 4 * (sf - 2 * de)
    n_payload = 8 + max(
        math.ceil(numerator / denominator) * params.coding_rate_denominator, 0
    )
    t_sym = symbol_time(params)
    t_preamble = (params.preamble_symbols + 4.25) * t_sym
    return t_preamble + n_payload * t_sym


def lorawan_time_on_air(
    app_payload_bytes: int, params: RadioParams = RadioParams()
) -> float:
    """Airtime of an application payload once wrapped as a LoRaWAN uplink.

    Adds the fixed 12 B of LoRaWAN framing before applying the modem
    formula, so ``lorawan_time_on_air(n) == time_on_air(n + 12)``. A refusal
    names the application payload, not the framed size.
    """
    if app_payload_bytes < 0:
        raise ValueError("payload size cannot be negative")
    if app_payload_bytes > MAX_PHY_PAYLOAD_BYTES - LORAWAN_OVERHEAD_BYTES:
        raise ValueError(
            f"payload of {app_payload_bytes} B plus {LORAWAN_OVERHEAD_BYTES} B of LoRaWAN "
            f"framing exceeds the {MAX_PHY_PAYLOAD_BYTES} B modem limit"
        )
    return time_on_air(app_payload_bytes + LORAWAN_OVERHEAD_BYTES, params)
