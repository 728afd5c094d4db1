//! Binary wire codecs for the core protocol messages.
//!
//! [`Runtime::Net`](crate::scenario::Runtime::Net) serializes every
//! message through the workspace's hand-rolled little-endian codec (the
//! serde shim is marker-only and never produces bytes). Path ids travel as
//! raw `u32`s, node sets (suspects, a payload's initiators) as their
//! `NODE_WORDS` little-endian backing words (width-honest: 32 bytes by
//! default, wider under `huge-graphs` — both endpoints share the binary,
//! so they always agree), and values as `f64` bit patterns. A
//! [`CompletePayload`] is its initiator bitmap followed by one value per
//! set bit, in node order, so a `COMPLETE`'s length depends only on
//! `NODE_WORDS` and its initiator count.
//!
//! ```text
//! ProtocolMsg::Flood    := 0x00 round:u32 value:f64bits path:u32
//! ProtocolMsg::Complete := 0x01 round:u32 suspects:[u64; NODE_WORDS] path:u32 seq:u64
//!                          initiators:[u64; NODE_WORDS] value:f64bits^popcount(initiators)
//! CrashMsg              := round:u32 value:f64bits path:u32
//! ```
//!
//! Two invariants the tests below pin down:
//!
//! * **Byte-identical round trips.** `encode ∘ decode ∘ encode` is the
//!   identity on bytes for every message — including NaN payloads, where
//!   structural equality cannot express the property.
//! * **Trust boundary.** The decoder is total and *structural only*: any
//!   `u32` decodes into a path-id-shaped field and any bitmap into an
//!   initiator set, and forged ids are rejected later by
//!   `validate_flood`/`validate_complete`, exactly as for in-process
//!   adversaries. The one semantic rule the decoder does enforce is that a
//!   [`CompletePayload`] is rebuilt through its constructor, so a wire
//!   peer can never supply its own fingerprint.

use crate::crash::CrashMsg;
use crate::message::ProtocolMsg;
use crate::message_set::CompletePayload;
use dbac_graph::PathId;
use dbac_sim::net::codec::{encode_node_set, WireError, WireMessage, WireReader};
use std::sync::Arc;

const TAG_FLOOD: u8 = 0;
const TAG_COMPLETE: u8 = 1;

fn encode_payload(payload: &CompletePayload, out: &mut Vec<u8>) {
    encode_node_set(payload.initiators(), out);
    for value in payload.values() {
        out.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

fn decode_payload(r: &mut WireReader<'_>) -> Result<CompletePayload, WireError> {
    let initiators = r.node_set()?;
    let values = (0..initiators.len()).map(|_| r.f64()).collect::<Result<_, _>>()?;
    Ok(CompletePayload::from_vector(initiators, values))
}

impl WireMessage for ProtocolMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ProtocolMsg::Flood { round, value, path } => {
                out.push(TAG_FLOOD);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&value.to_bits().to_le_bytes());
                out.extend_from_slice(&path.raw().to_le_bytes());
            }
            ProtocolMsg::Complete { round, suspects, payload, path, seq } => {
                out.push(TAG_COMPLETE);
                out.extend_from_slice(&round.to_le_bytes());
                encode_node_set(*suspects, out);
                out.extend_from_slice(&path.raw().to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                encode_payload(payload, out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_FLOOD => Ok(ProtocolMsg::Flood {
                round: r.u32()?,
                value: r.f64()?,
                path: PathId::from_raw(r.u32()?),
            }),
            TAG_COMPLETE => {
                let round = r.u32()?;
                let suspects = r.node_set()?;
                let path = PathId::from_raw(r.u32()?);
                let seq = r.u64()?;
                let payload = Arc::new(decode_payload(r)?);
                Ok(ProtocolMsg::Complete { round, suspects, payload, path, seq })
            }
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

impl WireMessage for CrashMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.value.to_bits().to_le_bytes());
        out.extend_from_slice(&self.path.raw().to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CrashMsg { round: r.u32()?, value: r.f64()?, path: PathId::from_raw(r.u32()?) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FloodMode;
    use crate::message::validate_flood;
    use crate::precompute::Topology;
    use crate::test_support::topo_of;
    use crate::witness::{NodePlan, RoundAction, RoundCore, WitnessScratch};
    use dbac_graph::{generators, NodeId, NodeSet};
    use dbac_sim::net::codec::MAX_FRAME;
    use dbac_sim::net::codec::NODE_SET_BYTES;

    /// One splitmix64 step — the corpus generator (no fuzzer dependency).
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Round trip must reproduce the exact bytes (structural equality
    /// cannot cover NaN values; byte identity covers everything).
    fn assert_bytes_round_trip(msg: &ProtocolMsg) {
        let bytes = msg.to_bytes();
        let decoded = ProtocolMsg::from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(decoded.to_bytes(), bytes, "re-encoding must be byte-identical");
    }

    /// Draws an f64 covering the awkward corners: negatives, subnormals,
    /// ±0.0, infinities, NaN, and plain random bit patterns.
    fn draw_value(state: &mut u64) -> f64 {
        match mix(state) % 8 {
            0 => -1234.5678,
            1 => f64::from_bits(1), // smallest positive subnormal
            2 => -f64::from_bits(mix(state) % 0x000F_FFFF_FFFF_FFFF), // subnormal range
            3 => -0.0,
            4 => f64::NEG_INFINITY,
            5 => f64::NAN,
            _ => f64::from_bits(mix(state)),
        }
    }

    fn draw_msg(state: &mut u64) -> ProtocolMsg {
        if mix(state) % 2 == 0 {
            ProtocolMsg::Flood {
                round: mix(state) as u32,
                value: draw_value(state),
                path: PathId::from_raw(mix(state) as u32),
            }
        } else {
            // Small (the first few nodes) or scattered initiator sets.
            let small = mix(state) % 2 == 0;
            let count = (mix(state) % 40) as usize;
            let payload: CompletePayload = (0..count)
                .map(|i| {
                    let q = if small { i } else { (mix(state) as usize) % dbac_graph::MAX_NODES };
                    (NodeId::new(q), draw_value(state))
                })
                .collect();
            ProtocolMsg::Complete {
                round: mix(state) as u32,
                suspects: {
                    let mut words = [0u64; dbac_graph::NODE_WORDS];
                    for w in &mut words {
                        *w = mix(state);
                    }
                    NodeSet::from_words(words)
                },
                payload: Arc::new(payload),
                path: PathId::from_raw(mix(state) as u32),
                seq: mix(state),
            }
        }
    }

    #[test]
    fn protocol_msg_round_trips_byte_identically() {
        let mut state = 0xC0DE_C0DE;
        for _ in 0..500 {
            assert_bytes_round_trip(&draw_msg(&mut state));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary messages (every variant, dense and sparse path
            /// sets, negative/subnormal/NaN values) re-encode to the
            /// exact bytes they decoded from.
            #[test]
            fn arbitrary_messages_round_trip(seed in 0u64..u64::MAX) {
                let mut state = seed;
                assert_bytes_round_trip(&draw_msg(&mut state));
            }

            /// Decoding an arbitrary buffer never panics — it returns a
            /// message or a typed error.
            #[test]
            fn arbitrary_buffers_never_panic(
                buf in prop::collection::vec(0u8..=255, 0..64),
            ) {
                let _ = ProtocolMsg::from_bytes(&buf);
                let _ = CrashMsg::from_bytes(&buf);
            }
        }
    }

    #[test]
    fn structural_round_trip_for_non_nan_messages() {
        let mut state = 7;
        let mut checked = 0;
        while checked < 200 {
            let msg = draw_msg(&mut state);
            let has_nan = match &msg {
                ProtocolMsg::Flood { value, .. } => value.is_nan(),
                ProtocolMsg::Complete { payload, .. } => {
                    payload.values().iter().any(|v| v.is_nan())
                }
            };
            if has_nan {
                continue;
            }
            assert_eq!(ProtocolMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
            checked += 1;
        }
    }

    /// The `COMPLETE` frame length the wire grammar gives for `initiators`.
    fn complete_len(initiators: usize) -> usize {
        1 + 4 + NODE_SET_BYTES + 4 + 8 + NODE_SET_BYTES + 8 * initiators
    }

    #[test]
    fn the_widest_complete_fits_the_frame_cap() {
        // A value for every node the width admits.
        let payload: CompletePayload =
            (0..dbac_graph::MAX_NODES).map(|q| (NodeId::new(q), q as f64 * 0.5)).collect();
        let msg = ProtocolMsg::Complete {
            round: 9,
            suspects: NodeSet::universe(dbac_graph::MAX_NODES),
            payload: Arc::new(payload),
            path: PathId::from_raw(3),
            seq: 77,
        };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), complete_len(dbac_graph::MAX_NODES));
        assert!(bytes.len() <= MAX_FRAME, "{} bytes exceeds the frame cap", bytes.len());
        assert_bytes_round_trip(&msg);
    }

    /// Every `COMPLETE` node `me` fires while its history fills in id
    /// order, each path carrying its initiator's index as the value.
    fn firings(topo: &Topology, me: NodeId) -> Vec<(NodeSet, Arc<CompletePayload>)> {
        let plan = NodePlan::new(topo, me);
        let mut core = RoundCore::new(topo, &plan);
        let mut scratch = WitnessScratch::new();
        let mut actions = core.start(me.index() as f64, topo, &plan, &mut scratch);
        for p in topo.index().paths_ending_at(me).filter(|&p| !topo.index().is_trivial(p)) {
            let value = topo.index().init(p).index() as f64;
            actions.extend(core.add_flood(p, value, topo, &plan, &mut scratch).1);
        }
        actions
            .into_iter()
            .filter_map(|a| match a {
                RoundAction::FloodComplete { guess, payload } => Some((guess, payload)),
                RoundAction::Advance { .. } => None,
            })
            .collect()
    }

    #[test]
    fn complete_length_depends_only_on_the_initiator_count() {
        // K5 at f = 1: every guess of every node fires; Figure 1(b)-small:
        // node 0's ∅-guess firing, over a pool of ~50k paths.
        let k5 = topo_of(generators::clique(5), 1, FloodMode::Redundant);
        let fig = topo_of(generators::figure_1b_small(), 1, FloodMode::Redundant);
        let mut cases: Vec<(NodeSet, Arc<CompletePayload>)> =
            k5.graph().nodes().flat_map(|me| firings(&k5, me)).collect();
        assert_eq!(cases.len(), 5 * 5, "∅ and four singletons per node");
        let empty = firings(&fig, NodeId::new(0)).into_iter().find(|(g, _)| g.is_empty());
        cases.push(empty.expect("the ∅ guess fires"));
        for (guess, payload) in cases {
            let msg = ProtocolMsg::Complete {
                round: 0,
                suspects: guess,
                payload: Arc::clone(&payload),
                path: PathId::from_raw(0),
                seq: 1,
            };
            let initiators = payload.initiators().len();
            assert!(initiators > 0 && payload.initiators().is_disjoint(guess), "{guess:?}");
            assert_eq!(msg.to_bytes().len(), complete_len(initiators), "{guess:?}");
        }
    }

    #[test]
    fn decode_never_panics_on_random_buffers() {
        // Seeded corpus: pure-random buffers plus corrupted truncations /
        // extensions of genuine encodings, across the interesting length
        // range. Every outcome must be Ok or a typed WireError.
        let mut state = 0xBAD_5EED;
        for case in 0..20_000u32 {
            let len = (mix(&mut state) % 96) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| (mix(&mut state) & 0xFF) as u8).collect();
            if case % 3 == 0 {
                // Start from a real message, then truncate and flip a byte.
                buf = draw_msg(&mut state).to_bytes();
                let cut = (mix(&mut state) as usize) % (buf.len() + 1);
                buf.truncate(cut);
                if !buf.is_empty() {
                    let i = (mix(&mut state) as usize) % buf.len();
                    buf[i] ^= (mix(&mut state) & 0xFF) as u8;
                }
            }
            let _ = ProtocolMsg::from_bytes(&buf);
            let _ = CrashMsg::from_bytes(&buf);
        }
    }

    /// A `COMPLETE` header (round 1, no suspects, path 0, seq 1) followed
    /// by `initiators` and the given value bytes.
    fn complete_bytes(initiators: NodeSet, values: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_COMPLETE];
        buf.extend_from_slice(&1u32.to_le_bytes()); // round
        buf.extend_from_slice(&[0u8; NODE_SET_BYTES]); // suspects
        buf.extend_from_slice(&0u32.to_le_bytes()); // path
        buf.extend_from_slice(&1u64.to_le_bytes()); // seq
        encode_node_set(initiators, &mut buf);
        buf.extend_from_slice(values);
        buf
    }

    #[test]
    fn a_short_value_vector_is_a_typed_error() {
        // Three initiators, then two and a half values: the vector is cut
        // inside its last value.
        let three: NodeSet = [0, 1, 2].into_iter().map(NodeId::new).collect();
        let buf = complete_bytes(three, &[0x11; 20]);
        assert!(matches!(ProtocolMsg::from_bytes(&buf).unwrap_err(), WireError::Truncated { .. }));
        // The whole bitmap set, and no values behind it.
        let all = NodeSet::universe(dbac_graph::MAX_NODES);
        let buf = complete_bytes(all, &[]);
        assert!(matches!(ProtocolMsg::from_bytes(&buf).unwrap_err(), WireError::Truncated { .. }));
        // One value too many is trailing bytes, not a fourth value.
        let buf = complete_bytes(three, &[0x11; 32]);
        assert_eq!(ProtocolMsg::from_bytes(&buf).unwrap_err(), WireError::Trailing { extra: 8 });
        assert!(ProtocolMsg::from_bytes(&complete_bytes(three, &[0x11; 24])).is_ok());
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_typed_errors() {
        assert_eq!(
            ProtocolMsg::from_bytes(&[0x7F]).unwrap_err(),
            WireError::UnknownTag { tag: 0x7F }
        );
        let mut bytes =
            ProtocolMsg::Flood { round: 1, value: 2.0, path: PathId::from_raw(0) }.to_bytes();
        bytes.push(0);
        assert_eq!(ProtocolMsg::from_bytes(&bytes).unwrap_err(), WireError::Trailing { extra: 1 });
    }

    #[test]
    fn forged_path_id_decodes_but_fails_validation() {
        // The codec is topology-agnostic: a forged id decodes fine …
        let forged =
            ProtocolMsg::Flood { round: 0, value: 1.0, path: PathId::from_raw(u32::MAX - 1) };
        let decoded = ProtocolMsg::from_bytes(&forged.to_bytes()).unwrap();
        let ProtocolMsg::Flood { path, .. } = decoded else { panic!("flood expected") };
        // … and the validation boundary rejects it, exactly as it does
        // for forged ids from in-process adversaries.
        let topo = topo_of(generators::clique(4), 1, FloodMode::Redundant);
        assert!(validate_flood(&topo, NodeId::new(2), NodeId::new(1), path).is_none());
    }

    #[test]
    fn payload_fingerprint_is_recomputed_not_trusted() {
        // Two payloads with the same vector must compare equal after a
        // round trip — the fingerprint comes from the constructor, never
        // from the wire.
        let original: Arc<CompletePayload> =
            Arc::new([(NodeId::new(4), 2.5), (NodeId::new(1), -3.0)].into_iter().collect());
        let msg = ProtocolMsg::Complete {
            round: 1,
            suspects: NodeSet::EMPTY,
            payload: Arc::clone(&original),
            path: PathId::from_raw(0),
            seq: 1,
        };
        let decoded = ProtocolMsg::from_bytes(&msg.to_bytes()).unwrap();
        let ProtocolMsg::Complete { payload, .. } = decoded else { panic!("complete expected") };
        assert_eq!(*payload, *original);
        assert_eq!(payload.fingerprint(), original.fingerprint());
    }

    #[test]
    fn crash_msg_round_trips() {
        let mut state = 11;
        for _ in 0..200 {
            let msg = CrashMsg {
                round: mix(&mut state) as u32,
                value: draw_value(&mut state),
                path: PathId::from_raw(mix(&mut state) as u32),
            };
            let bytes = msg.to_bytes();
            let decoded = CrashMsg::from_bytes(&bytes).unwrap();
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }
}
