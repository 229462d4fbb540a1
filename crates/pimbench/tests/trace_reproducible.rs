//! The `pimbench --trace` export is byte-reproducible: two runs of the
//! same benchmark write identical Chrome trace JSON. AES-Encryption is
//! the benchmark that frees many objects at one modeled timestamp, so
//! any run-to-run ordering (e.g. iterating a `HashMap`) shows up there
//! first.

use std::path::PathBuf;
use std::process::Command;

/// Runs AES-Encryption once with `--trace` and returns the trace bytes.
fn aes_trace(run: usize) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("aes_trace_{}_{run}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_pimbench"))
        .args([
            "--bench",
            "aes-encryption",
            "--target",
            "fulcrum",
            "--scale",
            "0.001",
            "--trace",
        ])
        .arg(&path)
        .output()
        .expect("pimbench runs");
    assert!(
        status.status.success(),
        "pimbench failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let bytes = std::fs::read(&path).expect("trace written");
    std::fs::remove_file(&path).expect("trace removable");
    bytes
}

#[test]
fn aes_encryption_traces_are_byte_identical_across_runs() {
    let (first, second) = (aes_trace(0), aes_trace(1));
    assert!(
        first.windows(15).any(|w| w == b"\"traceEvents\":["),
        "not a Chrome trace"
    );
    if let Some(i) = first.iter().zip(&second).position(|(a, b)| a != b) {
        let lo = i.saturating_sub(80);
        panic!(
            "traces differ at byte {i}:\n  run 0: {}\n  run 1: {}",
            String::from_utf8_lossy(&first[lo..(i + 80).min(first.len())]),
            String::from_utf8_lossy(&second[lo..(i + 80).min(second.len())]),
        );
    }
    assert_eq!(first.len(), second.len(), "traces differ in length");
}
