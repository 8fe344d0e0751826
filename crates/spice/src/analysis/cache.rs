//! Glue between the analyses and the content-addressed topology
//! artifact cache (`cml-cache`).
//!
//! Everything cached here is an artifact the solver would otherwise
//! re-derive per analysis invocation even though it is a pure function
//! of circuit structure: DC/transient Jacobian stamp patterns with
//! their symbolic LU analyses, the AC `G + jωC` pattern and the
//! factored AC reference state. Lint verdicts are not cached: the lint
//! precheck costs less than the content hash a verdict would be keyed
//! by.
//!
//! # Soundness
//!
//! The cache is advisory: a colliding entry must never change results,
//! only cost a cold derivation.
//!
//! * **Patterns** (topology-keyed) are stored *pre-factorization* —
//!   the expensive parts (stamp-recording pass, symmetrization, CSR
//!   construction, symbolic analysis and min-degree ordering) are
//!   reused, while every numeric value is assembled and factored fresh
//!   by the caller exactly as on the cold path, so warm results are
//!   bit-identical by construction.
//! * **AC factored states** (topology-keyed, one entry per topology)
//!   additionally carry the exact bit pattern of the assembled
//!   reference matrix; a cached factorization is used only after a full
//!   bitwise comparison against the live assembly. A mismatch (another
//!   design point of the same topology) is an ordinary miss that
//!   factors fresh and replaces the entry. A hit hands out a clone of
//!   the solver exactly as the cold path left it after factoring.
//!
//! # Telemetry
//!
//! The `cache_*` counters are recorded here, at the single
//! compute-per-key call sites, on the caller's [`Telemetry`]: hits
//! (`cache_hits`), cold derivations (`cache_misses`) and rejected
//! artifacts (`cache_validation_failures`). Because the interner
//! computes under the shard write lock (at most one cold derivation per
//! key process-wide), these totals are thread-count-invariant.

use super::{AcSparseState, ModeKind, SparseState, System};
use crate::element::StampMode;
use cml_cache::{intern, ArtifactKind, Fnv64, Key};
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{Complex64, SparseLu};
use cml_telemetry::{EventKind, Telemetry};
use std::sync::Arc;

/// Records the telemetry outcome of one interner round trip.
fn count_outcome(tel: &Telemetry, was_hit: bool) {
    tel.count(|c| {
        if was_hit {
            c.cache_hits += 1;
        } else {
            c.cache_misses += 1;
        }
    });
}

/// Topology-level key: circuit structure hash folded with the MNA
/// dimensions (defense in depth — a hash-equal circuit with different
/// unknown counts can never be consulted).
pub(super) fn topology_key(sys: &System<'_>, kind: ArtifactKind) -> Key {
    let mut h = Fnv64::new();
    h.write_u64(sys.circuit().topology_hash());
    h.write_usize(sys.dim());
    h.write_usize(sys.n_nodes());
    Key::new(kind, h.finish())
}

/// Cached variant of [`System::build_sparse`]: serves the DC- or
/// transient-mode stamp pattern plus symbolic LU from the interner,
/// deriving cold at most once per topology process-wide. The returned
/// state is a pristine pre-factor clone — numeric assembly and
/// factorization happen in the caller exactly as on the cold path,
/// which is what keeps warm results bit-identical. A transient state is
/// only a pattern: the compiled `G` and `C` values stay with their
/// system, and the caller checks the pattern against them.
pub(super) fn sparse_state_cached(
    sys: &System<'_>,
    x0: &[f64],
    mode: StampMode,
    tel: &Telemetry,
) -> Option<SparseState> {
    let mode_kind = ModeKind::of(mode);
    let kind = match mode_kind {
        ModeKind::Dc => ArtifactKind::DcPattern,
        ModeKind::Tran => ArtifactKind::TranPattern,
    };
    let key = topology_key(sys, kind);
    let (arc, was_hit) = intern::get_or_insert_with::<SparseState, _>(key, || {
        sys.build_sparse(x0, mode).map(Arc::new)
    })?;
    count_outcome(tel, was_hit);
    Some(arc.as_ref().clone())
}

// ---------------------------------------------------------------------
// AC: cached pattern + topology-keyed, content-validated factorization
// ---------------------------------------------------------------------

/// A factored AC reference state: the exact value bits of the assembled
/// `G + jω₀C` matrix it was factored from, plus the solver as the cold
/// path left it after factoring. Consulted only after `bits` compares
/// equal to the live assembly, so the factors and their pivot order can
/// never be applied to a matrix they weren't derived from.
#[derive(Debug)]
struct AcFactorArtifact {
    /// `(re, im)` bit patterns of every CSR value slot, interleaved.
    bits: Vec<u64>,
    /// The factored reference solver.
    lu: SparseLu<Complex64>,
}

/// Interleaved `(re, im)` bit patterns of the assembled matrix values.
fn matrix_bits(mat: &CsrMatrix<Complex64>) -> Vec<u64> {
    let mut out = Vec::with_capacity(mat.vals().len() * 2);
    for z in mat.vals() {
        out.push(z.re.to_bits());
        out.push(z.im.to_bits());
    }
    out
}

/// Cached variant of the AC sweep's reference preparation: serves the
/// `G + jωC` stamp pattern by topology, runs the sweep's stamp pass and
/// loads the reference matrix at `f0` fresh, then serves the
/// *factorization* interned under the same topology, used only when its
/// bits equal the live assembly. Falls back to cold derivation at every
/// validation boundary; returns `None` (→ dense sweep) exactly when the
/// uncached path would.
pub(super) fn prepare_ac_sparse_cached(
    sys: &System<'_>,
    x_op: &[f64],
    f0: f64,
    gmin: f64,
    tel: &Telemetry,
) -> Option<AcSparseState> {
    // Topology-keyed pattern + symbolic analysis.
    let pat_key = topology_key(sys, ArtifactKind::AcPattern);
    let (arc, was_hit) = intern::get_or_insert_with::<AcSparseState, _>(pat_key, || {
        sys.build_ac_sparse(x_op).map(Arc::new)
    })?;
    count_outcome(tel, was_hit);
    let mut sp: AcSparseState = arc.as_ref().clone();

    // The sweep's stamp pass, always fresh (values are never cached).
    if !sys.assemble_ac_sparse(x_op, gmin, &mut sp) {
        // The cached pattern can't carry this circuit's stamps (it can
        // only happen on a topology-hash abstraction failure): reject
        // it, rebuild fresh, and re-intern the good pattern.
        tel.count(|c| c.cache_validation_failures += 1);
        tel.event(|| EventKind::CacheRejected {
            kind: "ac-pattern-stamp".into(),
        });
        cml_cache::note_validation_failure();
        let fresh = sys.build_ac_sparse(x_op)?;
        intern::insert(pat_key, Arc::new(fresh.clone()));
        sp = fresh;
        if !sys.assemble_ac_sparse(x_op, gmin, &mut sp) {
            return None;
        }
    }
    sp.load(2.0 * std::f64::consts::PI * f0);

    // One factorization per topology, valid only for the exact matrix
    // it was factored from. A design-point sweep replaces the entry
    // instead of growing the interner by one entry per design point.
    let bits = matrix_bits(&sp.mat);
    let fac_key = Key::new(ArtifactKind::AcFactor, pat_key.hash);
    if let Some(art) = intern::lookup::<AcFactorArtifact>(fac_key) {
        if art.bits == bits {
            sp.lu = art.lu.clone();
            cml_cache::note_hit();
            tel.count(|c| c.cache_hits += 1);
            return Some(sp);
        }
    }

    // Miss: numeric reference factorization, then intern the factored
    // solver in place of any other design point's.
    sp.lu.factor(&sp.mat).ok()?;
    cml_cache::note_miss();
    tel.count(|c| c.cache_misses += 1);
    intern::insert(
        fac_key,
        Arc::new(AcFactorArtifact {
            bits,
            lu: sp.lu.clone(),
        }),
    );
    Some(sp)
}
