//! Bitwise checkpoint/restart: the `qmc-checkpoint/2` format.
//!
//! A checkpoint is the complete state of a run at a generation/block
//! boundary: the driver state ([`DmcState`] / [`VmcState`] — counters,
//! estimator series, branch controller with its private RNG) plus every
//! walker serialized through the exact-state wire codec
//! ([`crate::serialize`]). Because the walker wire format carries the raw
//! xoshiro256** state words and the buffer read cursors, a restored run
//! re-enters the generation loop with *identical* bits everywhere the
//! next floating-point operation can see — restore is bitwise, asserted
//! by the FNV-1a walker digests in [`crate::fingerprint`], not merely
//! statistically equivalent.
//!
//! File layout (all little-endian):
//!
//! ```text
//! magic          u64        "QMCCKPT1"
//! schema         u64 + utf8 "qmc-checkpoint/2"
//! driver         u64        0 = vmc, 1 = dmc
//! precision      u64        size_of::<T>() of the walker buffers (4 | 8)
//! <driver state> ...        see write_dmc_checkpoint / write_vmc_checkpoint
//! walker count   u64
//! walker record  u64 + bytes  (length-prefixed serialize_walker message)
//! checksum       u64        FNV-1a over every preceding byte
//! ```
//!
//! The checksum makes corruption detection explicit, and the write is
//! atomic (temp file + rename), so a job killed mid-checkpoint leaves the
//! previous checkpoint intact rather than a torn file. Decoding goes
//! through the checked [`crate::serialize::WireError`] path throughout:
//! a truncated or corrupt file is a clean [`CheckpointError`], never a
//! panic.
//!
//! **RNG policy note.** Checkpointing serializes exact RNG state (restore
//! must replay the very same stream); rank *migration* re-keys streams
//! first via [`crate::serialize::reseed_for_migration`] (two ranks must
//! never share a stream). Same codec, explicitly different policies.

use crate::dmc::{DmcParams, DmcState};
use crate::fingerprint::Fnv;
use crate::serialize::{
    decode_walker, push_f64, push_u64, serialize_walker, WireError, WireReader,
};
use crate::vmc::{VmcParams, VmcState};
use crate::walker::Walker;
use crate::{BranchController, ScalarEstimator};
use qmc_containers::Real;
use qmc_instrument::BlockEvent;

/// Schema tag of the checkpoint format. Its walker buffers hold 5·nel²
/// reals per determinant and no Slater matrix; a file of any other schema,
/// `qmc-checkpoint/1` included, is refused rather than misread.
pub const CHECKPOINT_SCHEMA: &str = "qmc-checkpoint/2";

/// File magic: `b"QMCCKPT1"` as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"QMCCKPT1");

/// Which driver wrote a checkpoint. The tag is stored in the file so a
/// DMC resume cannot silently consume a VMC checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverKind {
    /// Variational Monte Carlo (block-based).
    Vmc,
    /// Diffusion Monte Carlo (generation-based).
    Dmc,
}

impl DriverKind {
    fn tag(self) -> u64 {
        match self {
            DriverKind::Vmc => 0,
            DriverKind::Dmc => 1,
        }
    }

    fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(DriverKind::Vmc),
            1 => Some(DriverKind::Dmc),
            _ => None,
        }
    }

    /// Human-readable driver name.
    pub fn label(self) -> &'static str {
        match self {
            DriverKind::Vmc => "vmc",
            DriverKind::Dmc => "dmc",
        }
    }
}

/// Why a checkpoint could not be read or written. Every variant renders
/// as a clear one-line message; nothing in the decode path panics on bad
/// input.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading the checkpoint.
    Io(std::io::Error),
    /// Filesystem error writing a due checkpoint during a run.
    Write {
        /// Checkpoint path of the run's [`CheckpointSpec`].
        path: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// File shorter than the fixed header + checksum.
    TooShort(usize),
    /// FNV-1a checksum over the payload does not match the stored value.
    ChecksumMismatch,
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// Schema tag is not [`CHECKPOINT_SCHEMA`].
    BadSchema(String),
    /// Checkpoint was written by a different driver than the resume asked
    /// for.
    DriverMismatch {
        /// Driver the resume expected.
        expected: DriverKind,
        /// Driver recorded in the file.
        found: DriverKind,
    },
    /// Walker working precision in the file differs from the run's.
    PrecisionMismatch {
        /// `size_of::<T>()` of the resuming run.
        expected: usize,
        /// Precision bytes recorded in the file.
        found: u64,
    },
    /// Structurally invalid payload (truncation inside a record, absurd
    /// length prefix, trailing bytes, ...).
    Malformed(WireError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Write { path, source } => {
                write!(f, "cannot write checkpoint to {path}: {source}")
            }
            CheckpointError::TooShort(n) => {
                write!(f, "not a checkpoint: file is only {n} bytes")
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint is corrupt: FNV-1a checksum mismatch")
            }
            CheckpointError::BadMagic => write!(f, "not a qmc-checkpoint file (bad magic)"),
            CheckpointError::BadSchema(s) => {
                write!(
                    f,
                    "unsupported checkpoint schema '{s}' (expected {CHECKPOINT_SCHEMA})"
                )
            }
            CheckpointError::DriverMismatch { expected, found } => write!(
                f,
                "checkpoint was written by the {} driver, resume requested {}",
                found.label(),
                expected.label()
            ),
            CheckpointError::PrecisionMismatch { expected, found } => write!(
                f,
                "checkpoint carries {found}-byte walker precision, this run expects {expected}-byte"
            ),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Malformed(e)
    }
}

/// Where and how often to checkpoint: parsed from the CLI's
/// `--checkpoint PATH[:EVERY]` (every defaults to 1 — after every
/// generation/block).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file path (atomically replaced on each write).
    pub path: String,
    /// Write after every `every` completed generations/blocks.
    pub every: usize,
}

impl CheckpointSpec {
    /// Parses `PATH[:EVERY]`. A trailing `:N` with numeric `N` is the
    /// cadence; any other colon stays part of the path.
    pub fn parse(arg: &str) -> Result<Self, String> {
        if let Some((path, every)) = arg.rsplit_once(':') {
            if let Ok(every) = every.parse::<usize>() {
                if every == 0 {
                    return Err("checkpoint cadence must be >= 1".to_string());
                }
                if path.is_empty() {
                    return Err("checkpoint needs a path: --checkpoint PATH[:EVERY]".to_string());
                }
                return Ok(Self {
                    path: path.to_string(),
                    every,
                });
            }
        }
        if arg.is_empty() {
            return Err("checkpoint needs a path: --checkpoint PATH[:EVERY]".to_string());
        }
        Ok(Self {
            path: arg.to_string(),
            every: 1,
        })
    }

    /// True when a checkpoint is due after `completed` generations/blocks.
    pub fn due(&self, completed: usize) -> bool {
        completed > 0 && completed.is_multiple_of(self.every)
    }
}

/// Per-run control hooks of the drivers: periodic checkpointing and a
/// per-block observer (the streaming-telemetry sink).
/// [`RunControl::none`] is the plain uncontrolled run.
///
/// A checkpoint *write* failure is returned as
/// [`CheckpointError::Write`] and ends the run at that boundary: a
/// production job that silently stops checkpointing has lost its
/// fault-tolerance guarantee, which must be loud.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Periodic checkpointing, if any.
    pub checkpoint: Option<CheckpointSpec>,
    /// Called after every completed generation/block.
    pub on_block: Option<&'a mut dyn FnMut(&BlockEvent)>,
}

impl RunControl<'_> {
    /// No checkpointing, no observer.
    pub fn none() -> Self {
        Self::default()
    }

    /// Writes the checkpoint with `write` when one is due after
    /// `completed` generations/blocks.
    fn checkpoint_if_due(
        &self,
        completed: usize,
        write: impl FnOnce(&str) -> std::io::Result<()>,
    ) -> Result<(), CheckpointError> {
        match &self.checkpoint {
            Some(spec) if spec.due(completed) => {
                write(&spec.path).map_err(|source| CheckpointError::Write {
                    path: spec.path.clone(),
                    source,
                })
            }
            _ => Ok(()),
        }
    }

    /// Hook the DMC driver calls after [`DmcState::finish_generation`].
    pub fn after_dmc_generation<T: Real>(
        &mut self,
        state: &DmcState,
        walkers: &[Walker<T>],
        params: &DmcParams,
        e_block: f64,
        wsum: f64,
    ) -> Result<(), CheckpointError> {
        self.checkpoint_if_due(state.step, |path| {
            write_dmc_checkpoint(path, state, walkers)
        })?;
        if let Some(cb) = self.on_block.as_mut() {
            cb(&BlockEvent {
                driver: "dmc",
                step: state.step as u64,
                steps_total: params.steps as u64,
                population: walkers.len() as u64,
                samples: state.samples,
                accepted: state.accepted as u64,
                attempted: state.attempted as u64,
                e_block,
                e_trial: state.branch.e_trial,
                weight: wsum,
            });
        }
        Ok(())
    }

    /// Hook the VMC driver calls after each completed block.
    /// `samples_before` is the estimator length before the block, so the
    /// block's own energy mean can be reported as the delta.
    pub fn after_vmc_block<T: Real>(
        &mut self,
        state: &VmcState,
        walkers: &[Walker<T>],
        params: &VmcParams,
        samples_before: usize,
    ) -> Result<(), CheckpointError> {
        self.checkpoint_if_due(state.block, |path| {
            write_vmc_checkpoint(path, state, walkers)
        })?;
        if let Some(cb) = self.on_block.as_mut() {
            let fresh = &state.energy.samples()[samples_before..];
            #[expect(clippy::cast_precision_loss, reason = "sample counts are exact in f64")]
            let e_block = if fresh.is_empty() {
                f64::NAN
            } else {
                fresh.iter().sum::<f64>() / fresh.len() as f64
            };
            cb(&BlockEvent {
                driver: "vmc",
                step: state.block as u64,
                steps_total: params.blocks as u64,
                population: walkers.len() as u64,
                samples: state.samples,
                accepted: state.accepted as u64,
                attempted: state.attempted as u64,
                e_block,
                e_trial: f64::NAN,
                weight: f64::NAN,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn push_series(out: &mut Vec<u8>, xs: &[f64]) {
    push_u64(out, xs.len() as u64);
    for &x in xs {
        push_f64(out, x);
    }
}

fn push_estimator(out: &mut Vec<u8>, energy: &ScalarEstimator) {
    let (samples, weights) = energy.series();
    push_series(out, samples);
    push_series(out, weights);
}

fn header<T: Real>(driver: DriverKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    push_u64(&mut out, MAGIC);
    push_str(&mut out, CHECKPOINT_SCHEMA);
    push_u64(&mut out, driver.tag());
    push_u64(&mut out, std::mem::size_of::<T>() as u64);
    out
}

fn push_walkers<T: Real>(out: &mut Vec<u8>, walkers: &[Walker<T>]) {
    push_u64(out, walkers.len() as u64);
    for w in walkers {
        let msg = serialize_walker(w);
        push_u64(out, msg.len() as u64);
        out.extend_from_slice(&msg);
    }
}

/// Appends the FNV-1a checksum and writes the file atomically: the bytes
/// land in `PATH.tmp` first and are renamed over `PATH`, so a crash mid
/// write can never leave a torn checkpoint behind.
fn seal_and_write(path: &str, mut bytes: Vec<u8>) -> std::io::Result<()> {
    let mut h = Fnv::new();
    h.bytes(&bytes);
    push_u64(&mut bytes, h.value());
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Writes a DMC checkpoint: header, [`DmcState`], walkers, checksum.
///
/// The state destructurings name every field (the branch controller and
/// the estimator name theirs in their own modules), so a field added to
/// any of them does not compile until the format carries it.
pub fn write_dmc_checkpoint<T: Real>(
    path: &str,
    state: &DmcState,
    walkers: &[Walker<T>],
) -> std::io::Result<()> {
    let DmcState {
        branch,
        energy,
        population,
        e_trial_trace,
        accepted,
        attempted,
        samples,
        step,
        e0,
    } = state;
    let mut out = header::<T>(DriverKind::Dmc);
    push_u64(&mut out, *step as u64);
    push_u64(&mut out, *samples);
    push_u64(&mut out, *accepted as u64);
    push_u64(&mut out, *attempted as u64);
    push_f64(&mut out, *e0);
    push_estimator(&mut out, energy);
    push_u64(&mut out, population.len() as u64);
    for &p in population {
        push_u64(&mut out, p as u64);
    }
    push_series(&mut out, e_trial_trace);
    let (target_population, e_trial, feedback, tau, max_age, rng_state) =
        branch.checkpoint_fields();
    push_u64(&mut out, target_population as u64);
    push_f64(&mut out, e_trial);
    push_f64(&mut out, feedback);
    push_f64(&mut out, tau);
    push_u64(&mut out, max_age as u64);
    for s in rng_state {
        push_u64(&mut out, s);
    }
    push_walkers(&mut out, walkers);
    seal_and_write(path, out)
}
// Checkpoint writers only read the run: a `&mut` state or walker slice
// would not compile against these pins.
const _: fn(&str, &DmcState, &[Walker<f64>]) -> std::io::Result<()> = write_dmc_checkpoint::<f64>;

/// Writes a VMC checkpoint: header, [`VmcState`], walkers, checksum.
pub fn write_vmc_checkpoint<T: Real>(
    path: &str,
    state: &VmcState,
    walkers: &[Walker<T>],
) -> std::io::Result<()> {
    let VmcState {
        energy,
        accepted,
        attempted,
        samples,
        block,
    } = state;
    let mut out = header::<T>(DriverKind::Vmc);
    push_u64(&mut out, *block as u64);
    push_u64(&mut out, *samples);
    push_u64(&mut out, *accepted as u64);
    push_u64(&mut out, *attempted as u64);
    push_estimator(&mut out, energy);
    push_walkers(&mut out, walkers);
    seal_and_write(path, out)
}
const _: fn(&str, &VmcState, &[Walker<f64>]) -> std::io::Result<()> = write_vmc_checkpoint::<f64>;

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Reads the file, verifies the trailing checksum, and returns the
/// payload (everything before the checksum).
fn load_payload(path: &str) -> Result<Vec<u8>, CheckpointError> {
    let data = std::fs::read(path)?;
    if data.len() < 8 + 8 {
        return Err(CheckpointError::TooShort(data.len()));
    }
    let (payload, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
    let mut h = Fnv::new();
    h.bytes(payload);
    if h.value() != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(payload.to_vec())
}

fn take_str(r: &mut WireReader<'_>, what: &str) -> Result<String, CheckpointError> {
    let n = r.count(what, 1)?;
    let bytes = r.bytes(what, n)?;
    Ok(String::from_utf8_lossy(bytes).into_owned())
}

fn check_header<T: Real>(
    r: &mut WireReader<'_>,
    expected: DriverKind,
) -> Result<(), CheckpointError> {
    if r.u64("magic").map_err(CheckpointError::Malformed)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let schema = take_str(r, "schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(CheckpointError::BadSchema(schema));
    }
    let tag = r.u64("driver tag")?;
    let Some(found) = DriverKind::from_tag(tag) else {
        return Err(CheckpointError::Malformed(WireError {
            at: 0,
            what: format!("unknown driver tag {tag}"),
        }));
    };
    if found != expected {
        return Err(CheckpointError::DriverMismatch { expected, found });
    }
    let precision = r.u64("precision")?;
    if precision != std::mem::size_of::<T>() as u64 {
        return Err(CheckpointError::PrecisionMismatch {
            expected: std::mem::size_of::<T>(),
            found: precision,
        });
    }
    Ok(())
}

fn read_series(r: &mut WireReader<'_>, what: &str) -> Result<Vec<f64>, CheckpointError> {
    let n = r.count(what, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64(what)?);
    }
    Ok(out)
}

fn read_estimator(r: &mut WireReader<'_>) -> Result<ScalarEstimator, CheckpointError> {
    let samples = read_series(r, "energy samples")?;
    let weights = read_series(r, "energy weights")?;
    if samples.len() != weights.len() {
        return Err(CheckpointError::Malformed(WireError {
            at: r.offset(),
            what: format!(
                "estimator series lengths differ: {} samples vs {} weights",
                samples.len(),
                weights.len()
            ),
        }));
    }
    Ok(ScalarEstimator::from_series(samples, weights))
}

fn read_walkers<T: Real>(r: &mut WireReader<'_>) -> Result<Vec<Walker<T>>, CheckpointError> {
    let count = r.count("walker count", 8)?;
    let mut walkers = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.count("walker record length", 1)?;
        let before = r.offset();
        let w = decode_walker::<T>(r)?;
        let consumed = r.offset() - before;
        if consumed != len {
            return Err(CheckpointError::Malformed(WireError {
                at: r.offset(),
                what: format!("walker record consumed {consumed} bytes, prefix said {len}"),
            }));
        }
        walkers.push(w);
    }
    Ok(walkers)
}

/// Reads a DMC checkpoint written by [`write_dmc_checkpoint`].
pub fn read_dmc_checkpoint<T: Real>(
    path: &str,
) -> Result<(DmcState, Vec<Walker<T>>), CheckpointError> {
    let payload = load_payload(path)?;
    let mut r = WireReader::new(&payload);
    check_header::<T>(&mut r, DriverKind::Dmc)?;
    let step = r.usize("step")?;
    let samples = r.u64("samples")?;
    let accepted = r.usize("accepted")?;
    let attempted = r.usize("attempted")?;
    let e0 = r.f64("e0")?;
    let energy = read_estimator(&mut r)?;
    let npop = r.count("population trace", 8)?;
    let mut population = Vec::with_capacity(npop);
    for _ in 0..npop {
        population.push(r.usize("population value")?);
    }
    let e_trial_trace = read_series(&mut r, "e_trial trace")?;
    let target_population = r.usize("target population")?;
    let e_trial = r.f64("e_trial")?;
    let feedback = r.f64("feedback")?;
    let tau = r.f64("branch tau")?;
    let max_age = r.usize("max_age")?;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64("branch rng state")?;
    }
    let branch = BranchController::restore(
        target_population,
        e_trial,
        feedback,
        tau,
        max_age,
        rng_state,
    );
    let walkers = read_walkers::<T>(&mut r)?;
    r.finish("dmc checkpoint")
        .map_err(CheckpointError::Malformed)?;
    Ok((
        DmcState {
            branch,
            energy,
            population,
            e_trial_trace,
            accepted,
            attempted,
            samples,
            step,
            e0,
        },
        walkers,
    ))
}

/// Reads a VMC checkpoint written by [`write_vmc_checkpoint`].
pub fn read_vmc_checkpoint<T: Real>(
    path: &str,
) -> Result<(VmcState, Vec<Walker<T>>), CheckpointError> {
    let payload = load_payload(path)?;
    let mut r = WireReader::new(&payload);
    check_header::<T>(&mut r, DriverKind::Vmc)?;
    let block = r.usize("block")?;
    let samples = r.u64("samples")?;
    let accepted = r.usize("accepted")?;
    let attempted = r.usize("attempted")?;
    let energy = read_estimator(&mut r)?;
    let walkers = read_walkers::<T>(&mut r)?;
    r.finish("vmc checkpoint")
        .map_err(CheckpointError::Malformed)?;
    Ok((
        VmcState {
            energy,
            accepted,
            attempted,
            samples,
            block,
        },
        walkers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::population_digest;
    use crate::walker::{initial_population, zero_positions};
    use proptest::prelude::*;

    fn temp_path(name: &str) -> String {
        let p = std::env::temp_dir().join(name);
        p.to_str().expect("utf-8 temp path").to_string()
    }

    fn sample_dmc_state() -> (DmcState, Vec<crate::walker::Walker<f32>>) {
        let params = DmcParams {
            steps: 8,
            target_population: 6,
            ..DmcParams::default()
        };
        let mut walkers = initial_population::<f32>(&zero_positions(2), 6, 42);
        for (i, w) in walkers.iter_mut().enumerate() {
            w.weight = 1.0 + 0.1 * i as f64;
            w.e_local = -1.0 - 0.01 * i as f64;
            w.buffer.put_slice(&[0.5f32, -0.25]);
            w.buffer.put_f64(3.5);
        }
        let mut state = DmcState::fresh(-1.05, &params);
        // Advance past a couple of generations' worth of bookkeeping so the
        // state is not trivially fresh.
        state.energy.push(-1.04, 5.9);
        state.energy.push(-1.06, 6.1);
        state.population.extend([6, 7]);
        state.e_trial_trace.extend([-1.03, -1.07]);
        state.branch.branch(&mut walkers); // advance the private stream
        state.accepted = 123;
        state.attempted = 456;
        state.samples = 13;
        state.step = 2;
        (state, walkers)
    }

    #[test]
    fn dmc_checkpoint_roundtrips_bitwise() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_dmc_roundtrip.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        let (back, back_walkers) = read_dmc_checkpoint::<f32>(&path).expect("read");
        assert_eq!(back.step, state.step);
        assert_eq!(back.samples, state.samples);
        assert_eq!(back.accepted, state.accepted);
        assert_eq!(back.attempted, state.attempted);
        assert_eq!(back.e0.to_bits(), state.e0.to_bits());
        assert_eq!(back.energy.series(), state.energy.series());
        assert_eq!(back.population, state.population);
        assert_eq!(back.e_trial_trace, state.e_trial_trace);
        assert_eq!(
            back.branch.e_trial.to_bits(),
            state.branch.e_trial.to_bits()
        );
        assert_eq!(
            back.branch.checkpoint_fields(),
            state.branch.checkpoint_fields()
        );
        // The walker population restores bitwise, RNG streams included.
        assert_eq!(
            population_digest(&back_walkers),
            population_digest(&walkers)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vmc_checkpoint_roundtrips_bitwise() {
        let mut walkers = initial_population::<f64>(&zero_positions(3), 4, 7);
        for w in &mut walkers {
            w.buffer.put_f64(-9.0);
        }
        let mut state = VmcState::fresh();
        state.energy.push(-0.5, 1.0);
        state.energy.push(-0.4, 1.0);
        state.accepted = 17;
        state.attempted = 20;
        state.samples = 8;
        state.block = 2;
        let path = temp_path("qmc_ck_vmc_roundtrip.qmc");
        write_vmc_checkpoint(&path, &state, &walkers).expect("write");
        let (back, back_walkers) = read_vmc_checkpoint::<f64>(&path).expect("read");
        assert_eq!(back.block, 2);
        assert_eq!(back.samples, 8);
        assert_eq!(back.accepted, 17);
        assert_eq!(back.attempted, 20);
        assert_eq!(back.energy.samples(), state.energy.samples());
        assert_eq!(
            population_digest(&back_walkers),
            population_digest(&walkers)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_byte_is_checksum_mismatch_not_panic() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_corrupt.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        let mut bytes = std::fs::read(&path).expect("read bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        match read_dmc_checkpoint::<f32>(&path) {
            Err(CheckpointError::ChecksumMismatch) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The payload of a valid DMC checkpoint written to `path`: everything
    /// before the checksum.
    fn dmc_payload(path: &str) -> Vec<u8> {
        let (state, walkers) = sample_dmc_state();
        write_dmc_checkpoint(path, &state, &walkers).expect("write");
        let mut bytes = std::fs::read(path).expect("read bytes");
        bytes.truncate(bytes.len() - 8);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid DMC payload, XORed at random bytes or cut short and
        /// re-sealed with a matching checksum, gets past the checksum to
        /// `check_header`, the state fields and `read_walkers`. A mutated
        /// file reads as a checkpoint or a `CheckpointError`, a cut one
        /// always as the error; a panic fails the case.
        #[test]
        fn resealed_mutations_fail_cleanly(
            flips in prop::collection::vec((any::<u64>(), 1u32..256), 1..8),
            cut in any::<u64>(),
        ) {
            let path = temp_path("qmc_ck_fuzz.qmc");
            let valid = dmc_payload(&path);
            let mut mutated = valid.clone();
            for (at, x) in flips {
                let i = (at % mutated.len() as u64) as usize;
                mutated[i] ^= x as u8;
            }
            seal_and_write(&path, mutated).expect("write");
            let _decoded = read_dmc_checkpoint::<f32>(&path);
            let cut = (cut % valid.len() as u64) as usize;
            seal_and_write(&path, valid[..cut].to_vec()).expect("write");
            prop_assert!(read_dmc_checkpoint::<f32>(&path).is_err(), "cut at {cut}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn truncated_file_is_a_clean_error() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_truncated.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        let bytes = std::fs::read(&path).expect("read bytes");
        for cut in [0, 5, 16, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).expect("rewrite");
            let err = read_dmc_checkpoint::<f32>(&path);
            assert!(err.is_err(), "cut at {cut} must fail");
            // Every failure formats as a clear message, no panic anywhere.
            let msg = format!("{}", err.unwrap_err());
            assert!(!msg.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_garbage_fails_cleanly() {
        let path = temp_path("qmc_ck_garbage.qmc");
        std::fs::write(&path, b"this is not a checkpoint at all, sorry....").expect("write");
        assert!(matches!(
            read_dmc_checkpoint::<f32>(&path),
            Err(CheckpointError::ChecksumMismatch)
        ));
        std::fs::write(&path, b"tiny").expect("write");
        assert!(matches!(
            read_dmc_checkpoint::<f32>(&path),
            Err(CheckpointError::TooShort(4))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_with_valid_checksum_is_bad_magic() {
        let path = temp_path("qmc_ck_badmagic.qmc");
        let mut out = Vec::new();
        push_u64(&mut out, MAGIC ^ 0xFF);
        push_str(&mut out, CHECKPOINT_SCHEMA);
        seal_and_write(&path, out).expect("write");
        assert!(matches!(
            read_dmc_checkpoint::<f32>(&path),
            Err(CheckpointError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_schema_is_reported_by_name() {
        let path = temp_path("qmc_ck_badschema.qmc");
        let mut out = Vec::new();
        push_u64(&mut out, MAGIC);
        push_str(&mut out, "qmc-checkpoint/99");
        seal_and_write(&path, out).expect("write");
        match read_dmc_checkpoint::<f32>(&path) {
            Err(CheckpointError::BadSchema(s)) => assert_eq!(s, "qmc-checkpoint/99"),
            other => panic!("expected BadSchema, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A complete, checksummed file of the previous schema, whose walker
    /// buffers hold a Slater block this build would read as the G rows, is
    /// refused by its tag.
    #[test]
    fn a_schema_1_file_is_refused() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_schema1.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        let mut bytes = std::fs::read(&path).expect("read bytes");
        bytes.truncate(bytes.len() - 8);
        let at = 16;
        assert_eq!(
            &bytes[at..at + CHECKPOINT_SCHEMA.len()],
            CHECKPOINT_SCHEMA.as_bytes()
        );
        bytes[at..at + CHECKPOINT_SCHEMA.len()].copy_from_slice(b"qmc-checkpoint/1");
        seal_and_write(&path, bytes).expect("rewrite");
        match read_dmc_checkpoint::<f32>(&path) {
            Err(CheckpointError::BadSchema(s)) => assert_eq!(s, "qmc-checkpoint/1"),
            other => panic!("expected BadSchema, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn driver_and_precision_mismatches_are_detected() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_mismatch.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        // A VMC resume must refuse a DMC checkpoint.
        match read_vmc_checkpoint::<f32>(&path) {
            Err(CheckpointError::DriverMismatch { expected, found }) => {
                assert_eq!(expected, DriverKind::Vmc);
                assert_eq!(found, DriverKind::Dmc);
            }
            other => panic!("expected DriverMismatch, got {other:?}"),
        }
        // An f64 run must refuse an f32 checkpoint.
        match read_dmc_checkpoint::<f64>(&path) {
            Err(CheckpointError::PrecisionMismatch { expected, found }) => {
                assert_eq!(expected, 8);
                assert_eq!(found, 4);
            }
            other => panic!("expected PrecisionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_dmc_checkpoint::<f32>("/nonexistent/qmc_ck_nope.qmc"),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn spec_parses_path_and_cadence() {
        assert_eq!(
            CheckpointSpec::parse("ck.qmc").unwrap(),
            CheckpointSpec {
                path: "ck.qmc".to_string(),
                every: 1
            }
        );
        assert_eq!(
            CheckpointSpec::parse("out/ck.qmc:5").unwrap(),
            CheckpointSpec {
                path: "out/ck.qmc".to_string(),
                every: 5
            }
        );
        // A non-numeric suffix after ':' stays part of the path.
        assert_eq!(
            CheckpointSpec::parse("dir:with:colons").unwrap(),
            CheckpointSpec {
                path: "dir:with:colons".to_string(),
                every: 1
            }
        );
        assert!(CheckpointSpec::parse("ck.qmc:0").is_err());
        assert!(CheckpointSpec::parse("").is_err());
        assert!(CheckpointSpec::parse(":3").is_err());
    }

    #[test]
    fn spec_cadence_gates_writes() {
        let spec = CheckpointSpec {
            path: "x".to_string(),
            every: 3,
        };
        assert!(!spec.due(0));
        assert!(!spec.due(1));
        assert!(spec.due(3));
        assert!(!spec.due(4));
        assert!(spec.due(6));
        let every_block = CheckpointSpec {
            path: "x".to_string(),
            every: 1,
        };
        assert!(!every_block.due(0));
        assert!(every_block.due(1));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let (state, walkers) = sample_dmc_state();
        let path = temp_path("qmc_ck_atomic.qmc");
        write_dmc_checkpoint(&path, &state, &walkers).expect("write");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        // Overwriting an existing checkpoint also goes through the rename.
        write_dmc_checkpoint(&path, &state, &walkers).expect("rewrite");
        assert!(read_dmc_checkpoint::<f32>(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
