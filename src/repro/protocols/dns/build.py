"""DNS wire-format synthesis (RFC 1035) for the traffic generators."""

from __future__ import annotations

import ipaddress
import struct
from typing import Union

QTYPE = {"A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "PTR": 12, "MX": 15,
         "TXT": 16, "AAAA": 28, "HTTPS": 65}


def encode_name(name: str) -> bytes:
    """Encode a dotted name into DNS label format."""
    out = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("idna") if label else b""
        if len(raw) > 63:
            raise ValueError(f"label too long: {label!r}")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    return bytes(out)


def build_dns_query(
    name: str,
    qtype: str = "A",
    txn_id: int = 0x1234,
    recursion_desired: bool = True,
) -> bytes:
    """Build a single-question DNS query message."""
    flags = 0x0100 if recursion_desired else 0x0000
    header = struct.pack("!HHHHHH", txn_id, flags, 1, 0, 0, 0)
    question = encode_name(name) + struct.pack("!HH", QTYPE[qtype], 1)
    return header + question


def build_dns_response(
    name: str,
    address: Union[str, bytes] = "93.184.216.34",
    qtype: str = "A",
    txn_id: int = 0x1234,
    rcode: int = 0,
    ttl: int = 300,
) -> bytes:
    """Build a response with one answer (for rcode 0) to a query;
    ``address`` is text or already packed."""
    ancount = 1 if rcode == 0 else 0
    flags = 0x8180 | (rcode & 0x000F)
    header = struct.pack("!HHHHHH", txn_id, flags, 1, ancount, 0, 0)
    question = encode_name(name) + struct.pack("!HH", QTYPE[qtype], 1)
    message = header + question
    if ancount:
        rdata = address if isinstance(address, bytes) \
            else ipaddress.ip_address(address).packed
        answer = (
            b"\xc0\x0c"  # compression pointer to the question name
            + struct.pack("!HHIH", QTYPE[qtype], 1, ttl, len(rdata))
            + rdata
        )
        message += answer
    return message
