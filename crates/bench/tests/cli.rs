//! The `ftdircmp-bench` binary's output path: a reader that stops early
//! (`ftdircmp-bench all | head -1`) ends the run quietly.

use std::process::{Command, Stdio};

#[test]
fn a_closed_pipe_ends_the_output_quietly() {
    // Closed before the binary writes, as `| true` does.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftdircmp-bench"))
        .args(["tables", "hw_overhead"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the binary ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
