"""Model-based property test: ``Connection.record_packet`` vs the
three-step reference it was folded from.

``record_packet`` is one method on the per-packet path: weird checks,
the per-direction sequence high-water mark and the coarse TCP state
machine inlined, in that order. :class:`Reference` keeps them as three
separate steps over plain attributes, written for clarity rather than
speed; every packet of every drawn sequence must leave both in the same
state and return the same "newly established" verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conntrack import Connection, TcpConnState

FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10
MOD = 1 << 32

FIELDS = ("last_ts", "pkts_orig", "pkts_resp", "bytes_orig", "bytes_resp",
          "payload_bytes_orig", "payload_bytes_resp", "ooo_orig",
          "ooo_resp", "tcp_state", "history", "syn_ts", "established_ts",
          "_next_seq_orig", "_next_seq_resp")


class Reference:
    def __init__(self, protocol):
        self.tcp_state = TcpConnState.SYN_SENT if protocol == 6 \
            else TcpConnState.ESTABLISHED
        self.last_ts = self.syn_ts = self.established_ts = None
        self.pkts_orig = self.pkts_resp = self.bytes_orig = 0
        self.bytes_resp = self.payload_bytes_orig = 0
        self.payload_bytes_resp = self.ooo_orig = self.ooo_resp = 0
        self.history = ""
        self._next_seq_orig = self._next_seq_resp = None
        self.weirds = {}

    def weird(self, name):
        self.weirds[name] = self.weirds.get(name, 0) + 1

    def record_packet(self, from_orig, wire, payload, now, flags=None,
                      seq=None):
        self.last_ts = now
        side = "orig" if from_orig else "resp"
        setattr(self, "pkts_" + side, getattr(self, "pkts_" + side) + 1)
        setattr(self, "bytes_" + side, getattr(self, "bytes_" + side) + wire)
        setattr(self, "payload_bytes_" + side,
                getattr(self, "payload_bytes_" + side) + payload)
        if flags is None:
            return False
        self.check_weird(from_orig, payload, flags)
        if seq is not None:
            self.track_sequence(side, seq, payload, flags)
        return self.track_tcp(from_orig, flags, now)

    def check_weird(self, from_orig, payload, flags):
        if flags & SYN and flags & FIN:
            self.weird("syn_and_fin")
        if flags & SYN and payload > 0:
            self.weird("data_on_syn")
        if self.tcp_state is TcpConnState.SYN_SENT:
            if flags & FIN and not flags & SYN:
                self.weird("fin_without_handshake")
            elif payload > 0 and from_orig and not flags & SYN \
                    and self.pkts_orig <= 1:
                self.weird("data_before_established")
        if self.tcp_state is TcpConnState.CLOSED and payload > 0:
            self.weird("data_after_close")

    def track_sequence(self, side, seq, payload, flags):
        expected = getattr(self, "_next_seq_" + side)
        if expected is not None and payload > 0:
            diff = (seq - expected) % MOD
            if diff >= MOD // 2:
                setattr(self, "ooo_" + side, getattr(self, "ooo_" + side) + 1)
                return
            if diff > 4_000_000:
                self.weird("large_seq_jump")
        end = (seq + payload + (1 if flags & (SYN | FIN) else 0)) % MOD
        if expected is not None and (end - expected) % MOD >= MOD // 2:
            end = expected
        setattr(self, "_next_seq_" + side, end)

    def track_tcp(self, from_orig, flags, now):
        state = self.tcp_state
        if flags & RST:
            self.tcp_state = TcpConnState.CLOSED
            self.history += "R"
            return False
        if flags & SYN and not flags & ACK:
            self.history += "S"
            if self.syn_ts is None:
                self.syn_ts = now
            return False
        if flags & SYN:
            self.history += "SA"
        elif flags & FIN:
            self.history += "F"
            self.tcp_state = {TcpConnState.CLOSING: TcpConnState.CLOSED,
                              TcpConnState.CLOSED: TcpConnState.CLOSED
                              }.get(state, TcpConnState.CLOSING)
            return False
        elif from_orig:
            return False
        if state is not TcpConnState.SYN_SENT:
            return False
        self.tcp_state = TcpConnState.ESTABLISHED
        self.established_ts = now
        return True


flag_sets = st.sampled_from([
    SYN, SYN | ACK, ACK, FIN | ACK, FIN, RST, RST | ACK, SYN | FIN, 0,
    ACK | 0x08])
packets = st.lists(st.tuples(
    st.booleans(),                                  # from the originator
    st.integers(0, 1500),                           # payload bytes
    flag_sets,
    st.one_of(st.none(),                            # sequence number
              st.integers(0, MOD - 1),
              st.integers(MOD - 2000, MOD - 1),
              # around the large-jump threshold from a mark near 0
              st.sampled_from([0, 1, 1461, 3_000_000, 4_000_000,
                               4_000_001, 4_000_002, 4_001_461]))),
    max_size=12)


@settings(max_examples=400, deadline=None)
@given(protocol=st.sampled_from([6, 17]), tcp=st.booleans(),
       packets=packets, first_ts=st.sampled_from([0.0, 7.5]))
def test_record_packet_matches_three_step_reference(protocol, tcp, packets,
                                                    first_ts):
    key = (b"\x0a\x00\x00\x01", 1000, b"\x0a\x00\x00\x02", 443, protocol)
    conn, ref = Connection(key, True, first_ts), Reference(protocol)
    ref.last_ts = first_ts
    for k, (from_orig, payload, flags, seq) in enumerate(packets):
        now = first_ts + 0.1 * k
        args = (from_orig, 54 + payload, payload, now)
        if tcp:
            args += (flags, seq)
        assert conn.record_packet(*args) == ref.record_packet(*args)
        assert [getattr(conn, f) for f in FIELDS] == \
            [getattr(ref, f) for f in FIELDS]
        assert dict(conn.weirds) == ref.weirds
        assert list(conn.weirds) == list(ref.weirds)  # order of first sight
