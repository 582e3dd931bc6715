//! Bounded decoding: a length field read off the wire is checked against
//! the bits actually present before anything is allocated.
//!
//! The `{wcw}` token and the `L_g` window token both carry a Θ(n)-bit
//! payload behind an Elias-delta length. A crafted message that claims a
//! payload far longer than itself must end the handler in
//! `Err(ProcessError::Decode(..))`: a plain error the engine confines to
//! one run, never a capacity request sized by the claim (which used to
//! abort the whole process with a 16 TiB allocation).

use ringleader_automata::Symbol;
use ringleader_bitio::{BitString, BitWriter, DecodeError};
use ringleader_core::{LgRecognizer, WcWPrefixForward};
use ringleader_langs::{GrowthFunction, LgLanguage};
use ringleader_sim::{Context, Direction, ProcessError, Protocol};

/// Delivers `msg` to a fresh leader or follower (holding letter `a`) and
/// returns the handler's verdict and the messages it tried to send.
fn deliver(
    proto: &dyn Protocol,
    leader: bool,
    msg: &BitString,
) -> (Result<(), ProcessError>, usize) {
    let mut process = if leader { proto.leader(Symbol(0)) } else { proto.follower(Symbol(0)) };
    let mut ctx = Context::detached(leader, None);
    let result = process.on_message(Direction::Clockwise, msg, &mut ctx);
    let (sent, _) = ctx.into_effects();
    (result, sent.len())
}

fn assert_truncation(result: Result<(), ProcessError>, what: &str) {
    assert!(
        matches!(result, Err(ProcessError::Decode(DecodeError::UnexpectedEnd { .. }))),
        "{what}: {result:?}"
    );
}

/// The wcw token: valid, phase, delta(|prefix| + 1), prefix, delta(cursor + 1).
fn wcw_token(after: bool, claimed_len: u64, prefix: &[bool]) -> BitString {
    let mut w = BitWriter::new();
    w.write_bit(true).write_bit(after).write_elias_delta(claimed_len + 1);
    for &b in prefix {
        w.write_bit(b);
    }
    w.write_elias_delta(1);
    w.finish()
}

#[test]
fn crafted_57_bit_wcw_token_is_a_decode_error() {
    // valid, Before, Elias-delta length 2⁴⁴ + 1 and nothing else: 57 bits
    // that claim a 2⁴⁴-bit prefix.
    let mut w = BitWriter::new();
    w.write_bit(true).write_bit(false).write_elias_delta((1u64 << 44) + 1);
    let msg = w.finish();
    assert_eq!(msg.len(), 57);
    let proto = WcWPrefixForward::new();
    for leader in [false, true] {
        let (result, sent) = deliver(&proto, leader, &msg);
        assert_truncation(result, &format!("leader={leader}"));
        assert_eq!(sent, 0, "nothing is forwarded after a decode error");
    }
}

#[test]
fn wcw_token_with_an_inflated_length_is_a_decode_error() {
    let proto = WcWPrefixForward::new();
    let prefix = [true, false, true, true];
    // The honest token decodes and is forwarded...
    let (result, sent) = deliver(&proto, false, &wcw_token(false, 4, &prefix));
    assert_eq!((result, sent), (Ok(()), 1));
    // ...while every claim past the bits on the wire is refused, from one
    // bit too many up to u64::MAX - 1.
    for claimed in [6, 64, 1 << 20, 1 << 44, u64::MAX - 1] {
        for after in [false, true] {
            let (result, sent) = deliver(&proto, false, &wcw_token(after, claimed, &prefix));
            assert_truncation(result, &format!("claimed {claimed}, after={after}"));
            assert_eq!(sent, 0);
        }
    }
}

/// A phase-2 `L_g` window token: tag, valid, has-position flag,
/// [delta(pos + 1), delta(limit + 1)], delta(m), delta(|window| + 1), window.
fn window_token(
    pos_limit: Option<(u64, u64)>,
    m: u64,
    claimed_len: u64,
    window: &[bool],
) -> BitString {
    let mut w = BitWriter::new();
    w.write_bit(true).write_bit(true).write_bit(pos_limit.is_some());
    if let Some((pos, limit)) = pos_limit {
        w.write_elias_delta(pos + 1).write_elias_delta(limit + 1);
    }
    w.write_elias_delta(m).write_elias_delta(claimed_len + 1);
    for &b in window {
        w.write_bit(b);
    }
    w.finish()
}

#[test]
fn lg_window_token_with_an_inflated_length_is_a_decode_error() {
    let window = [false, true, false];
    for (lang, pos_limit) in [
        (LgLanguage::new(GrowthFunction::NSqrtN), Some((3, 20))),
        (LgLanguage::fully_periodic(GrowthFunction::NSqrtN), None),
    ] {
        let proto = LgRecognizer::new(&lang);
        let (result, sent) = deliver(&proto, false, &window_token(pos_limit, 5, 3, &window));
        assert_eq!((result, sent), (Ok(()), 1), "honest token");
        for claimed in [4, 1 << 20, 1 << 44, u64::MAX - 1] {
            for leader in [false, true] {
                let msg = window_token(pos_limit, 5, claimed, &window);
                let (result, sent) = deliver(&proto, leader, &msg);
                assert_truncation(result, &format!("claimed {claimed}, leader={leader}"));
                assert_eq!(sent, 0);
            }
        }
    }
}
