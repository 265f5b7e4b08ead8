//! The `ftdircmp-lint` binary's output path: a reader that stops early
//! (`ftdircmp-lint dump | head -1`) ends the output quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// Runs `ftdircmp-lint dump args`, closing its stdout after reading
/// `lines` lines of it; returns those lines and how the binary ended.
fn dump_closed_after(args: &[&str], lines: usize) -> (String, Output) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftdircmp-lint"))
        .arg("dump")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut read = String::new();
    for _ in 0..lines {
        reader.read_line(&mut read).expect("a line of output");
    }
    drop(reader);
    (read, child.wait_with_output().expect("the binary ends"))
}

#[test]
fn a_closed_pipe_ends_the_output_quietly() {
    // Closed before the binary writes: its write always meets the closed
    // pipe. Then as `| head -1` does, after the first line.
    for (args, lines) in [(&[][..], 0), (&["L1"][..], 1)] {
        let (read, out) = dump_closed_after(args, lines);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}: {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
        assert_eq!(read, "### L1 controller\n".repeat(lines));
    }
}

/// An argument a command does not take is an `error:` line naming it,
/// then the usage, with status 2, not a run that ignores it.
#[test]
fn an_unexpected_argument_is_a_usage_error_naming_it() {
    for (args, needle) in [
        (
            &["dump", "L1", "extra"][..],
            "error: dump: unexpected argument \"extra\"",
        ),
        (&["dump", "L3"], "error: dump: unknown controller \"L3\""),
        (
            &["write-spec", "--spek", "x"],
            "error: write-spec: unexpected argument \"--spek\"",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ftdircmp-lint"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
}
