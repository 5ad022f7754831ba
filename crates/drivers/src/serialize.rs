//! Walker wire serialization.
//!
//! The paper's load balancing performs "send/recv of serialized Walker
//! objects" (§8), and one quantified win of the memory work is that "the
//! memory-reduction algorithms in Jastrow reduce the Walker message size by
//! 22.5 MB for the NiO-64 problem". This module provides that
//! serialization: a walker packs to a flat byte message (positions,
//! properties, anonymous buffer with its read cursors, raw RNG state) and
//! unpacks bit-exactly.
//!
//! **RNG policy.** Serialization is a pure function of the walker: the
//! exact xoshiro256** state words go on the wire, so serializing never
//! perturbs the source walker and a deserialized walker continues its
//! stream bitwise — the property checkpoint/restart is built on. Migration
//! between ranks wants the *opposite* statistical contract (decorrelated
//! streams on arrival, since two ranks must never replay one stream), so
//! re-keying is its own explicit step: call [`reseed_for_migration`]
//! before serializing a walker that is leaving for another rank.

use crate::walker::Walker;
use qmc_containers::{Pos, Real, TinyVector};
use qmc_wavefunction::WalkerBuffer;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Error decoding a walker wire message: offset and what was expected.
/// Checked decoding exists so a truncated or corrupt checkpoint surfaces
/// as a clean error instead of a slice-index panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// What the decoder was reading.
    pub what: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "walker message invalid at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for WireError {}

/// Checked little-endian reader over a wire message.
pub(crate) struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn err(&self, what: &str) -> WireError {
        WireError {
            at: self.pos,
            what: what.to_string(),
        }
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(self.err(&format!("truncated while reading {what}")));
        };
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().expect("8-byte slice"));
        self.pos = end;
        Ok(v)
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u64` field read as a `usize`: a value the target cannot index is
    /// malformed input, not a silent truncation.
    pub(crate) fn usize(&mut self, what: &str) -> Result<usize, WireError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| self.err(&format!("{what} ({v}) does not fit in usize")))
    }

    /// A `u64` count that must also be plausible: the remaining bytes must
    /// be able to hold `count * elem_bytes`. Guards against corrupt length
    /// prefixes requesting absurd allocations.
    pub(crate) fn count(&mut self, what: &str, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64(what)?;
        let need = u128::from(n) * (elem_bytes as u128);
        if need > (self.buf.len() - self.pos) as u128 {
            return Err(self.err(&format!(
                "length prefix for {what} ({n} elements) exceeds remaining {} bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(usize::try_from(n).expect("count bounded by buffer length"))
    }

    /// Takes `n` raw bytes (length typically pre-validated via [`Self::count`]).
    pub(crate) fn bytes(&mut self, what: &str, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(self.err(&format!("truncated while reading {what}")));
        };
        let b = &self.buf[self.pos..end];
        self.pos = end;
        Ok(b)
    }

    pub(crate) fn finish(self, what: &str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError {
                at: self.pos,
                what: format!("{} trailing bytes after {what}", self.buf.len() - self.pos),
            })
        }
    }

    pub(crate) fn offset(&self) -> usize {
        self.pos
    }
}

pub(crate) fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Serializes a walker into a flat byte message. Side-effect-free: the
/// same walker serializes to the same bytes every time, and a mid-block
/// snapshot leaves the buffer read cursors untouched.
///
/// Layout: `n_particles, positions (3 f64 each), weight, multiplicity,
/// age, e_local, log_psi, rng state (4 u64), n_reals, reals (widened to
/// f64), r_cursor, n_doubles, doubles, d_cursor`.
///
/// The destructuring names every field, so a field added to [`Walker`]
/// does not compile until the codec carries it.
pub fn serialize_walker<T: Real>(w: &Walker<T>) -> Vec<u8> {
    let Walker {
        r,
        buffer,
        weight,
        multiplicity,
        age,
        e_local,
        log_psi,
        rng,
    } = w;
    let mut out = Vec::with_capacity(w.bytes() + 128);
    push_u64(&mut out, r.len() as u64);
    for p in r {
        for d in 0..3 {
            push_f64(&mut out, p[d]);
        }
    }
    push_f64(&mut out, *weight);
    push_f64(&mut out, *multiplicity);
    push_u64(&mut out, *age as u64);
    push_f64(&mut out, *e_local);
    push_f64(&mut out, *log_psi);
    for s in rng.state() {
        push_u64(&mut out, s);
    }

    // Anonymous buffer: cursor-independent snapshot plus the cursors
    // themselves, so a walker checkpointed mid-consumption restores
    // mid-consumption.
    let (r_cursor, d_cursor) = buffer.cursors();
    let reals = buffer.reals();
    push_u64(&mut out, reals.len() as u64);
    for x in reals {
        push_f64(&mut out, x.to_f64());
    }
    push_u64(&mut out, r_cursor as u64);
    let doubles = buffer.doubles();
    push_u64(&mut out, doubles.len() as u64);
    for x in doubles {
        push_f64(&mut out, *x);
    }
    push_u64(&mut out, d_cursor as u64);
    out
}
// Serializing is pure: a `&mut` receiver would not compile against this pin.
const _: fn(&Walker<f64>) -> Vec<u8> = serialize_walker::<f64>;

/// Re-keys a walker's RNG stream in place: draws a fresh seed from the
/// walker's own stream and restarts from it. This is the statistical
/// contract rank migration wants (decorrelated streams on arrival, as MPI
/// codes re-key because raw generator state is implementation-defined) —
/// call it before [`serialize_walker`] when the walker is leaving for
/// another rank. Checkpointing deliberately does *not* re-key.
#[expect(
    clippy::disallowed_methods,
    reason = "the migration re-key draws the new seed"
)]
pub fn reseed_for_migration<T: Real>(w: &mut Walker<T>) {
    let reseed: u64 = w.rng.random();
    w.rng = StdRng::seed_from_u64(reseed);
}

/// Checked deserialization of a walker message produced by
/// [`serialize_walker`]: returns a clean [`WireError`] on truncated or
/// trailing bytes instead of panicking.
pub fn try_deserialize_walker<T: Real>(msg: &[u8]) -> Result<Walker<T>, WireError> {
    let mut r = WireReader::new(msg);
    let w = decode_walker(&mut r)?;
    r.finish("walker message")?;
    Ok(w)
}

/// Decodes one walker from the reader's current position (shared by the
/// single-message path and the checkpoint codec, which concatenates
/// walker records).
pub(crate) fn decode_walker<T: Real>(r: &mut WireReader<'_>) -> Result<Walker<T>, WireError> {
    let n = r.count("particle count", 24)?;
    let mut pos: Vec<Pos<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.f64("position")?;
        let y = r.f64("position")?;
        let z = r.f64("position")?;
        pos.push(TinyVector([x, y, z]));
    }
    let weight = r.f64("weight")?;
    let multiplicity = r.f64("multiplicity")?;
    let age = r.usize("age")?;
    let e_local = r.f64("e_local")?;
    let log_psi = r.f64("log_psi")?;
    let mut state = [0u64; 4];
    for s in &mut state {
        *s = r.u64("rng state")?;
    }

    let nr = r.count("buffer reals", 8)?;
    let mut buffer = WalkerBuffer::new();
    let mut reals: Vec<T> = Vec::with_capacity(nr);
    for _ in 0..nr {
        reals.push(T::from_f64(r.f64("buffer real")?));
    }
    buffer.put_slice(&reals);
    let r_cursor = r.usize("real cursor")?;
    let nd = r.count("buffer doubles", 8)?;
    for _ in 0..nd {
        buffer.put_f64(r.f64("buffer double")?);
    }
    let d_cursor = r.usize("double cursor")?;
    if r_cursor > nr || d_cursor > nd {
        return Err(WireError {
            at: r.offset(),
            what: format!("buffer cursors ({r_cursor}, {d_cursor}) past stream ends ({nr}, {nd})"),
        });
    }
    buffer.set_cursors(r_cursor, d_cursor);

    Ok(Walker {
        r: pos,
        buffer,
        weight,
        multiplicity,
        age,
        e_local,
        log_psi,
        rng: StdRng::from_state(state),
    })
}

/// Deserializes a walker, panicking on malformed input. Rank migration
/// uses this (its messages come straight from [`serialize_walker`] in the
/// same process); anything reading from disk goes through
/// [`try_deserialize_walker`].
pub fn deserialize_walker<T: Real>(msg: &[u8]) -> Walker<T> {
    try_deserialize_walker(msg).unwrap_or_else(|e| panic!("invalid walker message: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::zero_positions;
    use proptest::prelude::*;
    use rand::Rng;

    fn rich_walker() -> Walker<f32> {
        let mut w = Walker::<f32>::new(
            vec![TinyVector([1.0, 2.0, 3.0]), TinyVector([-4.5, 0.25, 9.125])],
            7,
        );
        w.weight = 1.75;
        w.multiplicity = 2.0;
        w.age = 3;
        w.e_local = -12.5;
        w.log_psi = -3.25;
        w.buffer.put_slice(&[1.5f32, -2.5, 0.125]);
        w.buffer.put_f64(99.0);
        w
    }

    #[test]
    fn roundtrip_preserves_everything_including_rng() {
        let mut w = rich_walker();
        let msg = serialize_walker(&w);
        let mut back: Walker<f32> = deserialize_walker(&msg);
        assert_eq!(back.r, w.r);
        assert_eq!(back.weight, 1.75);
        assert_eq!(back.multiplicity, 2.0);
        assert_eq!(back.age, 3);
        assert_eq!(back.e_local, -12.5);
        assert_eq!(back.log_psi, -3.25);
        // Buffer contents bit-exact.
        back.buffer.rewind();
        let mut s = [0.0f32; 3];
        back.buffer.get_slice(&mut s);
        assert_eq!(s, [1.5, -2.5, 0.125]);
        assert_eq!(back.buffer.get_f64(), 99.0);
        assert!(back.buffer.fully_consumed());
        // The RNG stream continues bitwise: restore is exact, not re-keyed.
        for _ in 0..100 {
            assert_eq!(w.rng.next_u64(), back.rng.next_u64());
        }
    }

    #[test]
    fn double_serialize_is_bitwise_equal_and_side_effect_free() {
        let w = rich_walker();
        let rng_before = w.rng.state();
        let cursors_before = w.buffer.cursors();
        let a = serialize_walker(&w);
        let b = serialize_walker(&w);
        assert_eq!(a, b, "serializing twice must produce identical bytes");
        assert_eq!(w.rng.state(), rng_before, "serialize drew from the RNG");
        assert_eq!(w.buffer.cursors(), cursors_before);
    }

    #[test]
    fn mid_consumption_snapshot_preserves_and_restores_cursors() {
        // Regression for the old `buffer_contents` rewinding the cursor:
        // serializing a walker mid-block must neither disturb the source
        // cursor nor lose the position on restore.
        let mut w = Walker::<f64>::new(zero_positions(1), 5);
        w.buffer.put_slice(&[10.0, 20.0, 30.0]);
        w.buffer.put_f64(-1.0);
        w.buffer.put_f64(-2.0);
        w.buffer.rewind();
        let mut one = [0.0f64; 1];
        w.buffer.get_slice(&mut one);
        assert_eq!(w.buffer.get_f64(), -1.0);
        let mid = w.buffer.cursors();

        let msg = serialize_walker(&w);
        assert_eq!(w.buffer.cursors(), mid, "snapshot moved the cursor");
        // Source continues where it left off.
        w.buffer.get_slice(&mut one);
        assert_eq!(one[0], 20.0);

        // Restored walker resumes from the same mid-consumption position.
        let mut back: Walker<f64> = deserialize_walker(&msg);
        assert_eq!(back.buffer.cursors(), mid);
        back.buffer.get_slice(&mut one);
        assert_eq!(one[0], 20.0);
        back.buffer.get_slice(&mut one);
        assert_eq!(one[0], 30.0);
        assert_eq!(back.buffer.get_f64(), -2.0);
        assert!(back.buffer.fully_consumed());
    }

    #[test]
    fn reseed_for_migration_rekeys_the_stream() {
        let mut a = Walker::<f64>::new(zero_positions(1), 9);
        let b = Walker::<f64>::new(zero_positions(1), 9);
        assert_eq!(a.rng.state(), b.rng.state());
        reseed_for_migration(&mut a);
        assert_ne!(a.rng.state(), b.rng.state(), "migration must decorrelate");
        // And the re-key shows up on the wire (unlike pure serialization).
        assert_ne!(serialize_walker(&a), serialize_walker(&b));
    }

    #[test]
    fn truncated_message_is_an_error_not_a_panic() {
        let w = rich_walker();
        let msg = serialize_walker(&w);
        for cut in 0..msg.len() {
            let err = try_deserialize_walker::<f32>(&msg[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is rejected too.
        let mut long = msg.clone();
        long.extend_from_slice(&[0u8; 4]);
        assert!(try_deserialize_walker::<f32>(&long).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random byte XORs of a valid message decode to a walker or to a
        /// `WireError`; a panic fails the case.
        #[test]
        fn xored_message_decodes_or_fails_cleanly(
            flips in prop::collection::vec((any::<u64>(), 1u32..256), 1..8),
        ) {
            let mut msg = serialize_walker(&rich_walker());
            for (at, x) in flips {
                let i = (at % msg.len() as u64) as usize;
                msg[i] ^= x as u8;
            }
            let _decoded = try_deserialize_walker::<f32>(&msg);
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        // A corrupt count must not drive a huge allocation.
        let mut msg = Vec::new();
        push_u64(&mut msg, u64::MAX);
        let err = try_deserialize_walker::<f64>(&msg).unwrap_err();
        assert!(err.what.contains("length prefix"), "{err}");
    }

    #[test]
    fn message_size_tracks_buffer_precision_payload() {
        // The message is dominated by the buffer for realistic walkers:
        // this is the "22.5 MB smaller Walker message" effect in miniature
        // (note the wire format widens reals to f64, so the f32 advantage
        // on the wire comes from the 5N^2 -> 5N payload reduction).
        let mut small = Walker::<f32>::new(zero_positions(4), 1);
        small.buffer.put_slice(&vec![0.0f32; 100]);
        let mut big = Walker::<f32>::new(zero_positions(4), 1);
        big.buffer.put_slice(&vec![0.0f32; 10_000]);
        let m_small = serialize_walker(&small).len();
        let m_big = serialize_walker(&big).len();
        assert!(m_big > m_small + 9_000 * 8);
    }

    #[test]
    fn empty_buffer_roundtrip() {
        let w = Walker::<f64>::new(zero_positions(1), 3);
        let msg = serialize_walker(&w);
        let back: Walker<f64> = deserialize_walker(&msg);
        assert_eq!(back.r.len(), 1);
        assert_eq!(back.buffer.bytes(), 0);
    }
}
