//! Payload-codec benches: the per-bit cost of moving a Θ(n)-bit payload
//! through `ringleader_bitio`, the layer the `{wcw}` and `L_g` protocols
//! spend almost all of their time in.
//!
//! Each operation runs at a byte-aligned bit offset (`aligned`, offset 0)
//! and an unaligned one (`unaligned`, offset 3: what a payload behind an
//! Elias-delta header sees), over payloads of 64 to 64 k bits:
//!
//! * `read` — `BitReader::read_bits(64)` field reads across the payload;
//! * `write` — `BitWriter::write_bits(_, 64)` field writes;
//! * `slice` — `BitString::slice`, i.e. `BitReader::read_bitstring`;
//! * `extend` — `BitString::extend_from`, i.e. `BitWriter::write_bitstring`.
//!
//! Labels are `payload_codec/<op>/<aligned|unaligned>/<bits>`. CI's
//! perf-smoke gates `extend/unaligned/16384` at ≤ 4× its aligned twin
//! from the same snapshot; `BENCH_0008.json` records the numbers.

use criterion::{criterion_group, criterion_main, Criterion};

use ringleader_bitio::{BitReader, BitString, BitWriter};

const BITS: [usize; 4] = [64, 1024, 16384, 65536];

/// The two destination/source bit offsets every operation runs at.
const OFFSETS: [(&str, usize); 2] = [("aligned", 0), ("unaligned", 3)];

/// A fixed pseudo-random payload of `len` bits.
fn payload(len: usize) -> BitString {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    BitString::from_bits((0..len).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1 == 1
    }))
}

/// One operand set: a payload of `bits` bits behind `offset` head bits.
struct Fixture {
    name: &'static str,
    offset: usize,
    /// The head and the payload in one string.
    src: BitString,
    /// The first `offset` bits of `src`.
    head: BitString,
    /// The payload alone.
    body: BitString,
    /// The payload as 64-bit fields.
    words: Vec<u64>,
}

impl Fixture {
    fn new(name: &'static str, offset: usize, bits: usize) -> Self {
        let src = payload(offset + bits);
        let body = src.slice(offset..offset + bits);
        let mut r = BitReader::new(&body);
        let words = (0..bits / 64).map(|_| r.read_bits(64).unwrap()).collect();
        Self { name, offset, head: src.slice(0..offset), src, body, words }
    }
}

/// Each operation's aligned and unaligned twins run back-to-back, so
/// their ratio (the CI gate) is robust to machine drift between groups.
fn bench_payload_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("payload_codec");
    for bits in BITS {
        let fixtures = OFFSETS.map(|(name, offset)| Fixture::new(name, offset, bits));
        for f in &fixtures {
            group.bench_function(format!("read/{}/{bits}", f.name), |b| {
                b.iter(|| {
                    let mut r = BitReader::new(&f.src);
                    r.read_bitstring(f.offset).unwrap();
                    let mut acc = 0u64;
                    while r.remaining() >= 64 {
                        acc ^= r.read_bits(64).unwrap();
                    }
                    acc
                });
            });
        }
        for f in &fixtures {
            group.bench_function(format!("write/{}/{bits}", f.name), |b| {
                b.iter(|| {
                    let mut w = BitWriter::new();
                    w.write_bitstring(&f.head);
                    for &word in &f.words {
                        w.write_bits(word, 64);
                    }
                    w.finish()
                });
            });
        }
        for f in &fixtures {
            group.bench_function(format!("slice/{}/{bits}", f.name), |b| {
                b.iter(|| f.src.slice(f.offset..f.offset + bits));
            });
        }
        for f in &fixtures {
            group.bench_function(format!("extend/{}/{bits}", f.name), |b| {
                b.iter(|| {
                    let mut dst = f.head.clone();
                    dst.extend_from(&f.body);
                    dst
                });
            });
        }
    }
    group.finish();
}

criterion_group!(payload_codec, bench_payload_codec);
criterion_main!(payload_codec);
