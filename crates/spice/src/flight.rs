//! Solver flight recorder: versioned, checksummed forensic bundles
//! dumped when an analysis fails.
//!
//! A `cml-serve`-style deployment cannot debug "the thousandth user's
//! netlist diverged" from a counter total: it needs the failing corner
//! itself. When `CML_FLIGHT_DIR` is set (or a directory is installed
//! with [`set_dir`]), every `*_traced` analysis entry point that
//! returns a [`SpiceError`] writes a **flight bundle** next to its
//! error: the circuit's content/topology hashes *and* its re-parseable
//! netlist, the exact [`NewtonOptions`], an optional workload seed, the
//! per-iteration Newton residual trajectory, the newest-N structured
//! events, and the full JSON [`SolverReport`](cml_telemetry::SolverReport)
//! — everything needed to replay the failure offline with
//! `cml-lint forensics <bundle> --replay`.
//!
//! # Format (`CMLF`, version 4)
//!
//! The header is magic, version, payload length and an FNV-1a checksum
//! over the payload, then the payload encoded with the shared
//! little-endian [`codec`](cml_cache::codec). Files are written
//! tmp+rename so a crashed dump never leaves a half-written bundle, and
//! readers validate magic → version → length → checksum → field decode
//! → content fingerprint before trusting a byte.
//!
//! Inside the payload, a **content fingerprint** (FNV-1a over the
//! deterministic fields only — hashes, netlist, options, seed, error,
//! trajectory bit patterns, events minus their timestamps) is stored
//! alongside the data. Two dumps of the same failing solve produce the
//! same fingerprint even though their wall-clock fields differ, which
//! is how "byte-identical modulo timestamps" is made machine-checkable.

use crate::analysis::NewtonOptions;
use crate::circuit::Circuit;
use crate::SpiceError;
use cml_cache::codec::{ByteReader, ByteWriter};
use cml_cache::fnv1a64;
use cml_telemetry::{warn_once, Event, EventKind, Telemetry};
use serde::Value;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable naming the directory flight bundles are written
/// to. Unset (and no [`set_dir`] override) disables the recorder — the
/// error paths then cost one branch.
pub const FLIGHT_DIR_ENV: &str = "CML_FLIGHT_DIR";

/// Bundle file extension.
pub const FLIGHT_EXT: &str = "cmlf";

/// Magic bytes opening every bundle.
pub const FLIGHT_MAGIC: [u8; 4] = *b"CMLF";

/// Current bundle format version. Readers reject other versions with a
/// typed error instead of guessing. Version 2 dropped the warm-start
/// byte from the options block; version 3 dropped the presence byte of
/// the error field, which every bundle carries; version 4 added the
/// limiting node to LTE-reject events.
pub const FLIGHT_VERSION: u32 = 4;

/// Header length: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Typed failure modes of bundle reading/validation — what
/// `cml-lint forensics` reports on a corrupt file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// Filesystem failure (stringified to keep the type `Clone`).
    Io(String),
    /// The file does not start with [`FLIGHT_MAGIC`].
    BadMagic,
    /// The file's format version is not [`FLIGHT_VERSION`].
    BadVersion(u32),
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Payload length the header claims.
        expected: u64,
        /// Payload bytes actually present.
        got: u64,
    },
    /// The FNV-1a checksum over the payload does not match the header.
    ChecksumMismatch,
    /// The payload ended (or a length field went insane) while decoding
    /// the named field.
    Truncated(&'static str),
    /// The stored content fingerprint disagrees with one recomputed
    /// from the decoded fields — an encoder/decoder bug or targeted
    /// tampering the checksum alone would also catch.
    FingerprintMismatch {
        /// Fingerprint stored in the bundle.
        stored: u64,
        /// Fingerprint recomputed from the decoded fields.
        computed: u64,
    },
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Io(m) => write!(f, "flight bundle I/O error: {m}"),
            FlightError::BadMagic => write!(f, "not a flight bundle (bad magic)"),
            FlightError::BadVersion(v) => {
                write!(f, "unsupported flight bundle version {v} (expected {FLIGHT_VERSION})")
            }
            FlightError::LengthMismatch { expected, got } => {
                write!(f, "flight bundle truncated: header claims {expected} payload bytes, file has {got}")
            }
            FlightError::ChecksumMismatch => write!(f, "flight bundle payload checksum mismatch"),
            FlightError::Truncated(field) => {
                write!(f, "flight bundle payload truncated while decoding `{field}`")
            }
            FlightError::FingerprintMismatch { stored, computed } => write!(
                f,
                "flight bundle content fingerprint mismatch: stored {stored:016x}, recomputed {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for FlightError {}

/// Stable tag for the error variant stored in a bundle (the Display
/// string carries the detail; the tag survives rewording).
fn error_tag(err: &SpiceError) -> u8 {
    match err {
        SpiceError::NoConvergence { .. } => 0,
        SpiceError::Singular { .. } => 1,
        SpiceError::NotFound { .. } => 2,
        SpiceError::InvalidParameter { .. } => 3,
        SpiceError::InvalidConfig { .. } => 4,
        SpiceError::Numeric(_) => 5,
        SpiceError::LintRejected { .. } => 6,
        SpiceError::Internal { .. } => 7,
        // Tag 8 is reserved (a removed variant); never reuse it, so old
        // bundles keep their meaning.
    }
}

/// A decoded (or to-be-encoded) forensic bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightBundle {
    /// Format version the bundle was written with.
    pub version: u32,
    /// [`Circuit::content_hash`] of the failing circuit.
    pub content_hash: u64,
    /// [`Circuit::topology_hash`] of the failing circuit.
    pub topology_hash: u64,
    /// Which analysis failed (`"op"`, `"tran"`, …).
    pub analysis: String,
    /// `(variant tag, Display string)` of the error the bundle records.
    pub error: (u8, String),
    /// The circuit's SPICE netlist ([`Circuit::netlist`]) — re-parseable
    /// by `cml-lint`, which is what makes replay possible.
    pub netlist: String,
    /// Newton options in effect for the failing solve.
    pub options: NewtonOptions,
    /// Workload RNG seed when one was installed via [`set_seed`].
    pub seed: Option<u64>,
    /// Per-iteration Newton residuals of the final solve attempt.
    pub trajectory: Vec<f64>,
    /// Newest-N structured events at dump time.
    pub events: Vec<Event>,
    /// Events the bounded ring had evicted by dump time.
    pub events_dropped: u64,
    /// Content fingerprint stored in the bundle (see
    /// [`FlightBundle::content_fingerprint`]).
    pub fingerprint: u64,
    /// The full `SolverReport` rendered as JSON (wall-clock fields live
    /// here, outside the fingerprint).
    pub report_json: String,
}

fn put_str(w: &mut ByteWriter, s: &str) {
    w.put_usize(s.len());
    for &b in s.as_bytes() {
        w.put_u8(b);
    }
}

fn get_str(r: &mut ByteReader<'_>, field: &'static str) -> Result<String, FlightError> {
    let n = r.get_usize().ok_or(FlightError::Truncated(field))?;
    if n > r.remaining() {
        return Err(FlightError::Truncated(field));
    }
    let mut bytes = Vec::with_capacity(n);
    for _ in 0..n {
        bytes.push(r.get_u8().ok_or(FlightError::Truncated(field))?);
    }
    String::from_utf8(bytes).map_err(|_| FlightError::Truncated(field))
}

/// Encodes one event. The timestamp is written *last* within the fixed
/// envelope so the fingerprint encoder can reuse the same field order
/// minus `t_ns`.
fn put_event(w: &mut ByteWriter, ev: &Event, with_time: bool) {
    w.put_u64(ev.seq);
    w.put_u32(ev.tid);
    if with_time {
        w.put_u64(ev.t_ns);
    }
    match &ev.kind {
        EventKind::NewtonIteration {
            analysis,
            iteration,
            residual,
            damped,
        } => {
            w.put_u8(0);
            put_str(w, analysis);
            w.put_u32(*iteration);
            w.put_f64(*residual);
            w.put_u8(u8::from(*damped));
        }
        EventKind::NewtonDiverged {
            analysis,
            iterations,
            residual,
        } => {
            w.put_u8(1);
            put_str(w, analysis);
            w.put_u32(*iterations);
            w.put_f64(*residual);
        }
        EventKind::LteReject { t, dt, node } => {
            w.put_u8(2);
            w.put_f64(*t);
            w.put_f64(*dt);
            w.put_u32(*node);
        }
        EventKind::NewtonRetry { t, dt } => {
            w.put_u8(3);
            w.put_f64(*t);
            w.put_f64(*dt);
        }
        EventKind::PivotFallback { column, pivot } => {
            w.put_u8(4);
            w.put_u64(*column);
            w.put_f64(*pivot);
        }
        EventKind::CacheRejected { kind } => {
            w.put_u8(5);
            put_str(w, kind);
        }
        EventKind::LintRejected { errors } => {
            w.put_u8(6);
            w.put_u32(*errors);
        }
        EventKind::Degradation { code } => {
            w.put_u8(7);
            put_str(w, code);
        }
    }
}

fn get_event(r: &mut ByteReader<'_>) -> Result<Event, FlightError> {
    const F: &str = "event";
    let seq = r.get_u64().ok_or(FlightError::Truncated(F))?;
    let tid = r.get_u32().ok_or(FlightError::Truncated(F))?;
    let t_ns = r.get_u64().ok_or(FlightError::Truncated(F))?;
    let tag = r.get_u8().ok_or(FlightError::Truncated(F))?;
    let num_u32 = |r: &mut ByteReader<'_>| r.get_u32().ok_or(FlightError::Truncated(F));
    let num_f64 = |r: &mut ByteReader<'_>| r.get_f64().ok_or(FlightError::Truncated(F));
    let kind = match tag {
        0 => EventKind::NewtonIteration {
            analysis: Cow::Owned(get_str(r, F)?),
            iteration: num_u32(r)?,
            residual: num_f64(r)?,
            damped: r.get_u8().ok_or(FlightError::Truncated(F))? != 0,
        },
        1 => EventKind::NewtonDiverged {
            analysis: Cow::Owned(get_str(r, F)?),
            iterations: num_u32(r)?,
            residual: num_f64(r)?,
        },
        2 => EventKind::LteReject {
            t: num_f64(r)?,
            dt: num_f64(r)?,
            node: num_u32(r)?,
        },
        3 => EventKind::NewtonRetry {
            t: num_f64(r)?,
            dt: num_f64(r)?,
        },
        4 => EventKind::PivotFallback {
            column: r.get_u64().ok_or(FlightError::Truncated(F))?,
            pivot: num_f64(r)?,
        },
        5 => EventKind::CacheRejected {
            kind: Cow::Owned(get_str(r, F)?),
        },
        6 => EventKind::LintRejected {
            errors: num_u32(r)?,
        },
        7 => EventKind::Degradation {
            code: Cow::Owned(get_str(r, F)?),
        },
        _ => return Err(FlightError::Truncated("event tag")),
    };
    Ok(Event {
        seq,
        t_ns,
        tid,
        kind,
    })
}

impl FlightBundle {
    /// Encodes every field before `events_dropped`, in payload order.
    /// Event timestamps are written only when `with_time` is set: the
    /// payload carries them, the fingerprint leaves them out.
    fn put_fields(&self, w: &mut ByteWriter, with_time: bool) {
        w.put_u64(self.content_hash);
        w.put_u64(self.topology_hash);
        put_str(w, &self.analysis);
        w.put_u8(self.error.0);
        put_str(w, &self.error.1);
        put_str(w, &self.netlist);
        w.put_usize(self.options.max_iter);
        w.put_usize(self.options.sparse_threshold);
        w.put_f64(self.options.vntol);
        w.put_f64(self.options.reltol);
        w.put_f64(self.options.abstol);
        w.put_f64(self.options.max_step);
        w.put_f64(self.options.gmin);
        w.put_u8(u8::from(self.options.cache));
        match self.seed {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                w.put_u64(s);
            }
        }
        w.put_f64_slice(&self.trajectory);
        w.put_usize(self.events.len());
        for ev in &self.events {
            put_event(w, ev, with_time);
        }
    }

    /// FNV-1a hash over the deterministic fields. Two dumps of the same
    /// failing solve agree on this even though timestamps, timings and
    /// peak RSS differ — "byte-identical modulo timestamps", as one
    /// comparable word.
    #[must_use]
    pub fn content_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::with_capacity(1024 + self.netlist.len());
        self.put_fields(&mut w, false);
        fnv1a64(&w.finish())
    }

    /// Serializes header + payload; the stored fingerprint is always
    /// recomputed from the current field values.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = ByteWriter::with_capacity(2048 + self.netlist.len() + self.report_json.len());
        self.put_fields(&mut p, true);
        p.put_u64(self.events_dropped);
        p.put_u64(self.content_fingerprint());
        put_str(&mut p, &self.report_json);
        let payload = p.finish();

        let mut h = ByteWriter::with_capacity(HEADER_LEN + payload.len());
        for &b in &FLIGHT_MAGIC {
            h.put_u8(b);
        }
        h.put_u32(FLIGHT_VERSION);
        h.put_u64(payload.len() as u64);
        h.put_u64(fnv1a64(&payload));
        let mut bytes = h.finish();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Decodes and fully validates a bundle: magic, version, length,
    /// checksum, field-level decode, and content-fingerprint agreement.
    ///
    /// # Errors
    ///
    /// A [`FlightError`] naming the first validation layer that failed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FlightError> {
        if bytes.len() < HEADER_LEN {
            return Err(FlightError::Truncated("header"));
        }
        if bytes[..4] != FLIGHT_MAGIC {
            return Err(FlightError::BadMagic);
        }
        let mut h = ByteReader::new(&bytes[4..HEADER_LEN]);
        let version = h.get_u32().ok_or(FlightError::Truncated("header"))?;
        if version != FLIGHT_VERSION {
            return Err(FlightError::BadVersion(version));
        }
        let payload_len = h.get_u64().ok_or(FlightError::Truncated("header"))?;
        let checksum = h.get_u64().ok_or(FlightError::Truncated("header"))?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return Err(FlightError::LengthMismatch {
                expected: payload_len,
                got: payload.len() as u64,
            });
        }
        if fnv1a64(payload) != checksum {
            return Err(FlightError::ChecksumMismatch);
        }
        let mut r = ByteReader::new(payload);
        let content_hash = r.get_u64().ok_or(FlightError::Truncated("content_hash"))?;
        let topology_hash = r.get_u64().ok_or(FlightError::Truncated("topology_hash"))?;
        let analysis = get_str(&mut r, "analysis")?;
        let tag = r.get_u8().ok_or(FlightError::Truncated("error"))?;
        let error = (tag, get_str(&mut r, "error")?);
        let netlist = get_str(&mut r, "netlist")?;
        let options = NewtonOptions {
            max_iter: r.get_usize().ok_or(FlightError::Truncated("options"))?,
            sparse_threshold: r.get_usize().ok_or(FlightError::Truncated("options"))?,
            vntol: r.get_f64().ok_or(FlightError::Truncated("options"))?,
            reltol: r.get_f64().ok_or(FlightError::Truncated("options"))?,
            abstol: r.get_f64().ok_or(FlightError::Truncated("options"))?,
            max_step: r.get_f64().ok_or(FlightError::Truncated("options"))?,
            gmin: r.get_f64().ok_or(FlightError::Truncated("options"))?,
            cache: r.get_u8().ok_or(FlightError::Truncated("options"))? != 0,
        };
        let seed = match r.get_u8().ok_or(FlightError::Truncated("seed"))? {
            0 => None,
            _ => Some(r.get_u64().ok_or(FlightError::Truncated("seed"))?),
        };
        let trajectory = r
            .get_f64_vec()
            .ok_or(FlightError::Truncated("trajectory"))?;
        let n_events = r.get_usize().ok_or(FlightError::Truncated("events"))?;
        // Bound the allocation by the bytes present: every event's fixed
        // envelope (seq, tid, timestamp, tag) alone takes 21 bytes.
        if n_events > r.remaining() / 21 {
            return Err(FlightError::Truncated("events"));
        }
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(get_event(&mut r)?);
        }
        let events_dropped = r
            .get_u64()
            .ok_or(FlightError::Truncated("events_dropped"))?;
        let fingerprint = r.get_u64().ok_or(FlightError::Truncated("fingerprint"))?;
        let report_json = get_str(&mut r, "report_json")?;
        if !r.exhausted() {
            return Err(FlightError::Truncated("trailing bytes"));
        }
        let bundle = FlightBundle {
            version,
            content_hash,
            topology_hash,
            analysis,
            error,
            netlist,
            options,
            seed,
            trajectory,
            events,
            events_dropped,
            fingerprint,
            report_json,
        };
        let computed = bundle.content_fingerprint();
        if computed != fingerprint {
            return Err(FlightError::FingerprintMismatch {
                stored: fingerprint,
                computed,
            });
        }
        Ok(bundle)
    }

    /// Reads and validates a bundle file.
    ///
    /// # Errors
    ///
    /// [`FlightError::Io`] for filesystem failures, otherwise the first
    /// failing validation layer.
    pub fn read(path: &Path) -> Result<Self, FlightError> {
        let bytes = std::fs::read(path).map_err(|e| FlightError::Io(e.to_string()))?;
        FlightBundle::from_bytes(&bytes)
    }

    /// Whether `other` matches the recorded residual trajectory
    /// bit-for-bit (the replay check's acceptance predicate).
    #[must_use]
    pub fn trajectory_matches(&self, other: &[f64]) -> bool {
        self.trajectory.len() == other.len()
            && self
                .trajectory
                .iter()
                .zip(other)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Renders the bundle for inspection (the `cml-lint forensics`
    /// `--json` output). The embedded report JSON is re-parsed so it
    /// nests as a tree rather than an escaped string.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let report: Value =
            serde_json::from_str(&self.report_json).unwrap_or(Value::Str(self.report_json.clone()));
        Value::Obj(vec![
            (
                "schema".into(),
                Value::Str(format!("cml-flight-v{}", self.version)),
            ),
            (
                "content_hash".into(),
                Value::Str(format!("{:016x}", self.content_hash)),
            ),
            (
                "topology_hash".into(),
                Value::Str(format!("{:016x}", self.topology_hash)),
            ),
            ("analysis".into(), Value::Str(self.analysis.clone())),
            (
                "error".into(),
                Value::Obj(vec![
                    ("tag".into(), Value::Num(f64::from(self.error.0))),
                    ("message".into(), Value::Str(self.error.1.clone())),
                ]),
            ),
            (
                "options".into(),
                Value::Obj(vec![
                    ("max_iter".into(), Value::Num(self.options.max_iter as f64)),
                    (
                        "sparse_threshold".into(),
                        Value::Num(self.options.sparse_threshold as f64),
                    ),
                    ("vntol".into(), Value::Num(self.options.vntol)),
                    ("reltol".into(), Value::Num(self.options.reltol)),
                    ("abstol".into(), Value::Num(self.options.abstol)),
                    ("max_step".into(), Value::Num(self.options.max_step)),
                    ("gmin".into(), Value::Num(self.options.gmin)),
                    ("cache".into(), Value::Bool(self.options.cache)),
                ]),
            ),
            (
                "seed".into(),
                match self.seed {
                    None => Value::Null,
                    Some(s) => Value::Num(s as f64),
                },
            ),
            (
                "residual_trajectory".into(),
                Value::Arr(self.trajectory.iter().map(|&r| Value::Num(r)).collect()),
            ),
            (
                "events".into(),
                Value::Arr(self.events.iter().map(Event::to_value).collect()),
            ),
            (
                "events_dropped".into(),
                Value::Num(self.events_dropped as f64),
            ),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("netlist_lines".into(), {
                Value::Num(self.netlist.lines().count() as f64)
            }),
            ("report".into(), report),
        ])
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Programmatic destination override (tests and embedding services use
/// this instead of mutating the process environment).
fn dir_override() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Installs (or clears) a process-wide flight directory override that
/// wins over [`FLIGHT_DIR_ENV`].
pub fn set_dir(dir: Option<PathBuf>) {
    if let Ok(mut guard) = dir_override().lock() {
        *guard = dir;
    }
}

/// The directory bundles are written to, if any: the [`set_dir`]
/// override first, else [`FLIGHT_DIR_ENV`] (consulted per call, so a
/// service can enable the recorder at runtime).
#[must_use]
pub fn active_dir() -> Option<PathBuf> {
    if let Ok(guard) = dir_override().lock() {
        if let Some(dir) = guard.as_ref() {
            return Some(dir.clone());
        }
    }
    match std::env::var(FLIGHT_DIR_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Workload RNG seed attached to subsequent bundles (yield/Monte-Carlo
/// drivers install theirs so a failing trial is re-runnable).
fn seed_slot() -> &'static Mutex<Option<u64>> {
    static SEED: OnceLock<Mutex<Option<u64>>> = OnceLock::new();
    SEED.get_or_init(|| Mutex::new(None))
}

/// Installs (or clears) the workload seed recorded in bundles.
pub fn set_seed(seed: Option<u64>) {
    if let Ok(mut guard) = seed_slot().lock() {
        *guard = seed;
    }
}

fn current_seed() -> Option<u64> {
    seed_slot().lock().ok().and_then(|g| *g)
}

/// Monotone dump counter, part of the bundle filename so concurrent
/// dumps in one process never collide.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dumps a forensic bundle for a failed solve. No-op (returns `None`)
/// unless a flight directory is configured; also returns `None` if the
/// dump itself fails (with a [`warn_once`] — a recorder failure must
/// never mask the solver error it was recording).
pub fn record_failure(
    ckt: &Circuit,
    opts: &NewtonOptions,
    analysis: &'static str,
    err: &SpiceError,
    tel: &Telemetry,
) -> Option<PathBuf> {
    let dir = active_dir()?;
    let report_json =
        serde_json::to_string(&tel.report().to_value()).unwrap_or_else(|_| "{}".to_string());
    let bundle = FlightBundle {
        version: FLIGHT_VERSION,
        content_hash: ckt.content_hash(),
        topology_hash: ckt.topology_hash(),
        analysis: analysis.to_string(),
        error: (error_tag(err), err.to_string()),
        netlist: ckt.netlist(),
        options: *opts,
        seed: current_seed(),
        trajectory: tel.residual_trajectory(),
        events: tel.events_snapshot(),
        events_dropped: tel.events_dropped(),
        fingerprint: 0, // recomputed by to_bytes
        report_json,
    };
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!(
        "flight-{analysis}-{:016x}-{}-{seq}.{FLIGHT_EXT}",
        bundle.content_hash,
        std::process::id()
    );
    let write = || -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, bundle.to_bytes())?;
        let dst = dir.join(&name);
        std::fs::rename(&tmp, &dst)?;
        Ok(dst)
    };
    match write() {
        Ok(path) => {
            tel.count(|c| c.flight_dumps += 1);
            Some(path)
        }
        Err(e) => {
            // A forensic dump must never escalate the original failure.
            warn_once(
                "flight-dump-failed",
                &format!("could not write flight bundle to {}: {e}", dir.display()),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> FlightBundle {
        FlightBundle {
            version: FLIGHT_VERSION,
            content_hash: 0xdead_beef_cafe_f00d,
            topology_hash: 0x0123_4567_89ab_cdef,
            analysis: "op".to_string(),
            error: (0, "newton: op failed".to_string()),
            netlist: "* test\nV1 in 0 DC 1\nR1 in 0 1k\n.end\n".to_string(),
            options: NewtonOptions {
                max_iter: 3,
                ..NewtonOptions::default()
            },
            seed: Some(42),
            trajectory: vec![1.5, 0.3, 0.07],
            events: vec![Event {
                seq: 0,
                t_ns: 123,
                tid: 0,
                kind: EventKind::NewtonDiverged {
                    analysis: "op".into(),
                    iterations: 3,
                    residual: 0.07,
                },
            }],
            events_dropped: 2,
            fingerprint: 0,
            report_json: "{\"schema\":\"cml-telemetry-v1\"}".to_string(),
        }
    }

    #[test]
    fn bundle_roundtrips() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        let decoded = FlightBundle::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.content_hash, b.content_hash);
        assert_eq!(decoded.analysis, "op");
        assert_eq!(decoded.error, b.error);
        assert_eq!(decoded.netlist, b.netlist);
        assert_eq!(decoded.options.max_iter, 3);
        assert_eq!(decoded.seed, Some(42));
        assert!(decoded.trajectory_matches(&[1.5, 0.3, 0.07]));
        assert_eq!(decoded.events, b.events);
        assert_eq!(decoded.events_dropped, 2);
        assert_eq!(decoded.fingerprint, b.content_fingerprint());
    }

    #[test]
    fn fingerprint_ignores_timestamps() {
        let a = sample_bundle();
        let mut b = sample_bundle();
        b.events[0].t_ns = 999_999;
        b.report_json = "{\"schema\":\"cml-telemetry-v1\",\"other\":1}".to_string();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        let mut c = sample_bundle();
        c.trajectory[1] = 0.300_000_001;
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = sample_bundle().to_bytes();
        assert_eq!(
            FlightBundle::from_bytes(&bytes[..10]),
            Err(FlightError::Truncated("header"))
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            FlightBundle::from_bytes(&bad_magic),
            Err(FlightError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            FlightBundle::from_bytes(&bad_version),
            Err(FlightError::BadVersion(99))
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert_eq!(
            FlightBundle::from_bytes(&flipped),
            Err(FlightError::ChecksumMismatch)
        );
        let truncated = &bytes[..bytes.len() - 8];
        assert!(matches!(
            FlightBundle::from_bytes(truncated),
            Err(FlightError::LengthMismatch { .. })
        ));
    }
}
