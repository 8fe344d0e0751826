//! Structured solver event log: typed, timestamped records of the
//! discrete things that *happen* during a solve (a Newton iteration's
//! residual, an LTE rejection, a pivot death, a cache rejection, a lint
//! rejection, a silent degradation), kept in a bounded per-handle ring
//! buffer.
//!
//! The counters in [`crate::Counters`] say *how much*; the event log
//! says *what happened and in what order* — the record the flight
//! recorder (`cml_spice::flight`) bundles when a solve fails. Three
//! properties carry over from the counter design:
//!
//! 1. **Zero cost when disabled.** [`crate::Telemetry::event`] takes a
//!    closure, so a disabled handle never even constructs the
//!    [`EventKind`].
//! 2. **Bounded.** Each recording handle owns one ring of
//!    [`DEFAULT_EVENT_CAPACITY`] slots; overflow drops the *oldest*
//!    events (a flight recorder wants the newest N) and counts the
//!    drops.
//! 3. **Thread-invariant totals.** Events are only emitted at
//!    per-occurrence sites (one per Newton iteration, one per rejected
//!    step…), so the `events_emitted` counter merges thread-invariantly
//!    like every other counter. The ring *contents* after a parallel
//!    merge are the per-worker rings concatenated in absorb (input)
//!    order — deterministic for a deterministic schedule of absorbs,
//!    though the interleaving against wall-clock is not.

use serde::Value;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Default ring capacity per recording handle. Chosen so a bundle keeps
/// roughly the last two failing Newton ladders' worth of iterations
/// while staying trivially small next to the waveform data.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// What happened. Fields use [`Cow`] so recording sites pay only a
/// `&'static str` copy while decoded flight bundles can carry owned
/// strings through the same type.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One damped Newton iteration finished: the worst-case update
    /// magnitude (`max |Δx|`, the convergence residual) and whether the
    /// step clamp engaged. Emitted only in fine mode (it fires once per
    /// iteration, and the coarse-mode overhead budget cannot afford a
    /// clock read at that rate); coarse-mode flight bundles still carry
    /// the per-iteration residuals via the trajectory channel.
    NewtonIteration {
        /// Analysis that ran the solve (`"op"`, `"tran"`, …).
        analysis: Cow<'static, str>,
        /// Iteration index within the solve attempt (0-based).
        iteration: u32,
        /// Worst-case update magnitude `max |Δx|` after this iteration.
        residual: f64,
        /// Whether the per-iteration voltage step clamp engaged.
        damped: bool,
    },
    /// A Newton solve attempt gave up (iteration budget exhausted or a
    /// non-finite iterate).
    NewtonDiverged {
        /// Analysis that ran the solve.
        analysis: Cow<'static, str>,
        /// Iterations spent before giving up.
        iterations: u32,
        /// Final residual (`+inf` for a non-finite iterate).
        residual: f64,
    },
    /// The LTE controller rejected an adaptive transient step.
    LteReject {
        /// Simulation time at the attempted step's start, seconds.
        t: f64,
        /// The rejected step size, seconds.
        dt: f64,
        /// MNA index of the node that strayed furthest from the
        /// predictor, the one that limited the step (the netlist node
        /// with raw id `node + 1`; ground has no MNA row).
        node: u32,
    },
    /// A transient step was retried at half size after Newton failed to
    /// converge.
    NewtonRetry {
        /// Simulation time at the attempted step's start, seconds.
        t: f64,
        /// The step size that failed to converge, seconds.
        dt: f64,
    },
    /// A frozen sparse pivot died numerically and the solve healed by a
    /// full re-pivoting factorization.
    PivotFallback {
        /// Elimination column whose pivot died.
        column: u64,
        /// Magnitude of the dead pivot (NaN when unknown).
        pivot: f64,
    },
    /// An interned cache artifact was rejected by validation and healed
    /// by a cold derivation.
    CacheRejected {
        /// Artifact kind label (`"pattern"`, `"lint"`, …).
        kind: Cow<'static, str>,
    },
    /// The pre-simulation lint precheck rejected the netlist.
    LintRejected {
        /// Number of error-severity diagnostics.
        errors: u32,
    },
    /// A silent-degradation warning fired (the machine-visible twin of
    /// [`crate::warn_once`]).
    Degradation {
        /// The warning's stable code (`"sparse-dense-fallback"`, …).
        code: Cow<'static, str>,
    },
}

impl EventKind {
    /// Stable snake-case name of the event kind (JSON label).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::NewtonIteration { .. } => "newton_iteration",
            EventKind::NewtonDiverged { .. } => "newton_diverged",
            EventKind::LteReject { .. } => "lte_reject",
            EventKind::NewtonRetry { .. } => "newton_retry",
            EventKind::PivotFallback { .. } => "pivot_fallback",
            EventKind::CacheRejected { .. } => "cache_rejected",
            EventKind::LintRejected { .. } => "lint_rejected",
            EventKind::Degradation { .. } => "degradation",
        }
    }

    /// Renders the kind-specific payload as a JSON object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("kind".into(), Value::Str(self.name().into()))];
        match self {
            EventKind::NewtonIteration {
                analysis,
                iteration,
                residual,
                damped,
            } => {
                fields.push(("analysis".into(), Value::Str(analysis.to_string())));
                fields.push(("iteration".into(), Value::Num(f64::from(*iteration))));
                fields.push(("residual".into(), Value::Num(*residual)));
                fields.push(("damped".into(), Value::Bool(*damped)));
            }
            EventKind::NewtonDiverged {
                analysis,
                iterations,
                residual,
            } => {
                fields.push(("analysis".into(), Value::Str(analysis.to_string())));
                fields.push(("iterations".into(), Value::Num(f64::from(*iterations))));
                fields.push(("residual".into(), Value::Num(*residual)));
            }
            EventKind::LteReject { t, dt, node } => {
                fields.push(("t".into(), Value::Num(*t)));
                fields.push(("dt".into(), Value::Num(*dt)));
                fields.push(("node".into(), Value::Num(f64::from(*node))));
            }
            EventKind::NewtonRetry { t, dt } => {
                fields.push(("t".into(), Value::Num(*t)));
                fields.push(("dt".into(), Value::Num(*dt)));
            }
            EventKind::PivotFallback { column, pivot } => {
                fields.push(("column".into(), Value::Num(*column as f64)));
                fields.push(("pivot".into(), Value::Num(*pivot)));
            }
            EventKind::CacheRejected { kind } => {
                fields.push(("artifact".into(), Value::Str(kind.to_string())));
            }
            EventKind::LintRejected { errors } => {
                fields.push(("errors".into(), Value::Num(f64::from(*errors))));
            }
            EventKind::Degradation { code } => {
                fields.push(("code".into(), Value::Str(code.to_string())));
            }
        }
        Value::Obj(fields)
    }
}

/// One timestamped event on a handle's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Per-handle emission sequence number (0-based; survives ring
    /// overflow, so gaps at the front reveal how much history was
    /// dropped).
    pub seq: u64,
    /// Nanoseconds since the process epoch (same timeline as spans).
    pub t_ns: u64,
    /// Virtual thread id of the emitting handle (0 = main, workers get
    /// their fork tid).
    pub tid: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event (envelope + kind payload) as a JSON object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let Value::Obj(mut fields) = self.kind.to_value() else {
            unreachable!("EventKind::to_value always renders an object")
        };
        fields.insert(0, ("seq".into(), Value::Num(self.seq as f64)));
        fields.insert(1, ("t_ns".into(), Value::Num(self.t_ns as f64)));
        fields.insert(2, ("tid".into(), Value::Num(f64::from(self.tid))));
        Value::Obj(fields)
    }
}

/// Bounded keep-newest-N event buffer. Single-writer (each recording
/// handle owns exactly one, like its counters), merged on join in
/// absorb order.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, kind: EventKind, t_ns: u64, tid: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq,
            t_ns,
            tid,
            kind,
        });
    }

    /// Merges a finished worker ring into this one: events are appended
    /// in the worker's order (callers absorb workers in input order, so
    /// the merged sequence is schedule-independent), then the ring is
    /// re-trimmed to capacity from the front. Worker sequence numbers
    /// are kept as emitted — `(tid, seq)` stays unique.
    pub fn absorb(&mut self, other: EventRing) {
        self.dropped += other.dropped;
        for ev in other.buf {
            if self.buf.len() == self.capacity {
                self.buf.pop_front();
                self.dropped += 1;
            }
            self.buf.push_back(ev);
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted by overflow (including overflow during absorb).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clones the held events into a plain vector, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degradation(code: &'static str) -> EventKind {
        EventKind::Degradation { code: code.into() }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = EventRing::with_capacity(4);
        for i in 0..10u64 {
            ring.push(degradation("x"), i, 0);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn absorb_concatenates_and_retrims() {
        let mut main = EventRing::with_capacity(3);
        main.push(degradation("a"), 0, 0);
        let mut w = EventRing::with_capacity(3);
        for i in 0..3u64 {
            w.push(degradation("b"), 10 + i, 1);
        }
        main.absorb(w);
        assert_eq!(main.len(), 3);
        // One eviction during absorb (1 + 3 events into capacity 3).
        assert_eq!(main.dropped(), 1);
        let tids: Vec<u32> = main.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 1, 1]);
    }

    #[test]
    fn event_json_has_envelope_and_payload() {
        let ev = Event {
            seq: 3,
            t_ns: 99,
            tid: 2,
            kind: EventKind::NewtonIteration {
                analysis: "op".into(),
                iteration: 1,
                residual: 0.5,
                damped: true,
            },
        };
        let Value::Obj(fields) = ev.to_value() else {
            panic!("event must render as an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "seq",
                "t_ns",
                "tid",
                "kind",
                "analysis",
                "iteration",
                "residual",
                "damped"
            ]
        );
    }

    #[test]
    fn lte_reject_json_names_the_limiting_node() {
        let kind = EventKind::LteReject {
            t: 1e-9,
            dt: 1e-12,
            node: 20,
        };
        let Value::Obj(fields) = kind.to_value() else {
            panic!("event must render as an object")
        };
        let node = fields.iter().find(|(k, _)| k == "node").map(|(_, v)| v);
        assert_eq!(node, Some(&Value::Num(20.0)));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            EventKind::LteReject {
                t: 0.0,
                dt: 1e-12,
                node: 0
            }
            .name(),
            "lte_reject"
        );
        assert_eq!(
            EventKind::PivotFallback {
                column: 4,
                pivot: 0.0
            }
            .name(),
            "pivot_fallback"
        );
    }
}
