//! Binary wire codecs for the baseline protocol messages.
//!
//! The RBC transport is generic in its payload, and so is its codec:
//! `RbcMsg<T>` encodes for any payload that is itself a
//! [`WireMessage`], with the payload encoded *last* so it may consume the
//! remainder of the frame. [`AadPayload`] rides that impl for the AAD04
//! baseline; the tests also drive it with the codec layer's built-in
//! `u64` impl.
//!
//! ```text
//! RbcMsg<T>          := phase:u8 origin:u32 seq:u64 payload:T
//!                       (phase: 0 Init, 1 Echo, 2 Ready)
//! AadPayload::Value  := 0x00 round:u32 bits:u64
//! AadPayload::Report := 0x01 round:u32 count:u32 (node:u32 bits:u64)^count
//! ```
//!
//! Node indices are bounds-checked against the graph layer's `MAX_NODES`
//! during decode (`WireReader::node_id`), so adversarial bytes cannot
//! reach the panicking `NodeId` constructor.

use crate::aad04::AadPayload;
use crate::reliable_broadcast::RbcMsg;
use dbac_sim::net::codec::{WireError, WireMessage, WireReader};

const TAG_INIT: u8 = 0;
const TAG_ECHO: u8 = 1;
const TAG_READY: u8 = 2;

const TAG_VALUE: u8 = 0;
const TAG_REPORT: u8 = 1;

/// Bytes per `(NodeId, u64)` report entry on the wire.
const ENTRY_BYTES: usize = 4 + 8;

impl<T: WireMessage> WireMessage for RbcMsg<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, origin, seq, payload) = match self {
            RbcMsg::Init { origin, seq, payload } => (TAG_INIT, origin, seq, payload),
            RbcMsg::Echo { origin, seq, payload } => (TAG_ECHO, origin, seq, payload),
            RbcMsg::Ready { origin, seq, payload } => (TAG_READY, origin, seq, payload),
        };
        out.push(tag);
        out.extend_from_slice(&(origin.index() as u32).to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        payload.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let origin = r.node_id()?;
        let seq = r.u64()?;
        let payload = T::decode(r)?;
        match tag {
            TAG_INIT => Ok(RbcMsg::Init { origin, seq, payload }),
            TAG_ECHO => Ok(RbcMsg::Echo { origin, seq, payload }),
            TAG_READY => Ok(RbcMsg::Ready { origin, seq, payload }),
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

impl WireMessage for AadPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AadPayload::Value { round, bits } => {
                out.push(TAG_VALUE);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&bits.to_le_bytes());
            }
            AadPayload::Report { round, entries } => {
                out.push(TAG_REPORT);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (node, bits) in entries {
                    out.extend_from_slice(&(node.index() as u32).to_le_bytes());
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_VALUE => Ok(AadPayload::Value { round: r.u32()?, bits: r.u64()? }),
            TAG_REPORT => {
                let round = r.u32()?;
                let count = r.u32()? as usize;
                if r.remaining() / ENTRY_BYTES < count {
                    return Err(WireError::Truncated {
                        needed: count * ENTRY_BYTES,
                        available: r.remaining(),
                    });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let node = r.node_id()?;
                    let bits = r.u64()?;
                    entries.push((node, bits));
                }
                Ok(AadPayload::Report { round, entries })
            }
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aad04::AadMsg;
    use dbac_graph::NodeId;

    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn draw_payload(state: &mut u64) -> AadPayload {
        if mix(state) % 2 == 0 {
            AadPayload::Value { round: mix(state) as u32, bits: mix(state) }
        } else {
            let count = (mix(state) % 12) as usize;
            let entries = (0..count)
                .map(|_| (NodeId::new((mix(state) % 128) as usize), mix(state)))
                .collect();
            AadPayload::Report { round: mix(state) as u32, entries }
        }
    }

    fn draw_msg(state: &mut u64) -> AadMsg {
        let origin = NodeId::new((mix(state) % 128) as usize);
        let seq = mix(state);
        let payload = draw_payload(state);
        match mix(state) % 3 {
            0 => RbcMsg::Init { origin, seq, payload },
            1 => RbcMsg::Echo { origin, seq, payload },
            _ => RbcMsg::Ready { origin, seq, payload },
        }
    }

    #[test]
    fn rbc_aad_messages_round_trip() {
        let mut state = 0xAAD0_4BCA;
        for _ in 0..400 {
            let msg = draw_msg(&mut state);
            let bytes = msg.to_bytes();
            let decoded = AadMsg::from_bytes(&bytes).expect("own encoding decodes");
            assert_eq!(decoded, msg);
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn rbc_u64_messages_round_trip() {
        let msg: RbcMsg<u64> = RbcMsg::Echo { origin: NodeId::new(5), seq: 3, payload: 42 };
        let bytes = msg.to_bytes();
        assert_eq!(RbcMsg::<u64>::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn decode_never_panics_on_random_buffers() {
        let mut state = 0xFEED_FACE;
        for _ in 0..20_000 {
            let len = (mix(&mut state) % 64) as usize;
            let buf: Vec<u8> = (0..len).map(|_| (mix(&mut state) & 0xFF) as u8).collect();
            let _ = AadMsg::from_bytes(&buf);
            let _ = RbcMsg::<u64>::from_bytes(&buf);
        }
    }

    #[test]
    fn oversized_origin_is_a_typed_error() {
        let raw = dbac_graph::MAX_NODES as u32;
        let mut buf = vec![TAG_INIT];
        buf.extend_from_slice(&raw.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(RbcMsg::<u64>::from_bytes(&buf).unwrap_err(), WireError::BadNodeId { raw });
    }

    #[test]
    fn forged_report_count_is_rejected_before_allocation() {
        let mut buf = vec![TAG_REPORT];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(AadPayload::from_bytes(&buf).unwrap_err(), WireError::Truncated { .. }));
    }
}
