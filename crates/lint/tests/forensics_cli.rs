//! End-to-end check of `cml-lint forensics --replay` on a freshly dumped
//! flight bundle, plus a decode of the `CMLF` container header from
//! literal constants, independent of the writer in `cml_spice::flight`.

use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::flight;
use cml_spice::telemetry::Telemetry;
use std::process::Command;

fn u32_le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

fn u64_le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn forensics_cli_replays_a_dumped_bundle() {
    let dir = std::env::temp_dir().join(format!("cml-forensics-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create flight dir");

    // One Newton iteration per homotopy rung cannot converge a MOSFET
    // circuit, so the solve fails and dumps exactly one bundle.
    let ckt = cml_lint::builtin_circuit("equalizer").expect("builtin");
    let opts = NewtonOptions {
        max_iter: 1,
        cache: false,
        ..NewtonOptions::default()
    };
    flight::set_dir(Some(dir.clone()));
    let solved = op::solve_traced(&ckt, &opts, None, &Telemetry::enabled());
    flight::set_dir(None);
    assert!(
        solved.is_err(),
        "starved iteration budget must not converge"
    );
    let bundles: Vec<_> = std::fs::read_dir(&dir)
        .expect("read flight dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cmlf"))
        .collect();
    assert_eq!(bundles.len(), 1, "one failing solve dumps one bundle");
    let bundle = &bundles[0];

    let blob = std::fs::read(bundle).expect("read bundle");
    assert!(blob.len() >= 24, "bundle shorter than its header");
    assert_eq!(&blob[..4], b"CMLF", "magic");
    assert_eq!(u32_le(&blob, 4), 4, "container version");
    let payload = &blob[24..];
    assert_eq!(u64_le(&blob, 8), payload.len() as u64, "payload length");
    assert_eq!(u64_le(&blob, 16), fnv1a_64(payload), "FNV-1a-64 checksum");

    let out = Command::new(env!("CARGO_BIN_EXE_cml-lint"))
        .arg("forensics")
        .arg(bundle)
        .arg("--replay")
        .output()
        .expect("run cml-lint");
    assert!(
        out.status.success(),
        "cml-lint forensics --replay exited {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
