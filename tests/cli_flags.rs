//! `ftdircmp-cli` flags patch the run's config document: a flag the
//! document cannot take exits with status 2 and names the flag, instead of
//! running a configuration nobody asked for.

use std::process::{Command, Stdio};

fn cli(flags: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftdircmp-cli"))
        .args(["--bench", "barnes", "--ops", "60", "--summary-only"])
        .args(flags)
        .output()
        .unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn bad_config_flags_exit_2_naming_the_flag() {
    for (flags, needle) in [
        (
            &["--fualt-rate", "2000"][..],
            "error: --fualt-rate: unknown config key \"fualt_rate\"",
        ),
        (
            &["--fault-rate", "-5"],
            "error: --fault-rate: loss_per_million = -5",
        ),
        (&["--seed"], "error: --seed: expected a value"),
        (&["--mesh", "9x8"], "error: --mesh: mesh 9x8 has 72 tiles"),
        (
            &["--mesh", "0x4"],
            "error: --mesh: mesh dimensions must be positive",
        ),
        (
            &["--seed", "7", "--routing", "west"],
            "error: --routing: field \"routing\"",
        ),
        (
            &["--trace-line", "6,zz"],
            "error: --trace-line: \"zz\" is not a hex line address",
        ),
    ] {
        let (code, stdout, stderr) = cli(flags);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(needle), "{flags:?}: {stderr}");
        assert!(stdout.is_empty(), "{flags:?} ran: {stdout}");
    }
}

/// Bad input to the CLI's own flags is one `error:` line naming the flag,
/// and the path it could not read or write, with status 2.
#[test]
fn bad_run_flags_exit_2_naming_the_flag_and_path() {
    let missing = std::env::temp_dir().join("ftdircmp-no-such-dir");
    let trace = missing.join("in.trace").display().to_string();
    let dump = missing.join("out.trace").display().to_string();
    for (flags, needle) in [
        (
            &["--ops", "abc"][..],
            "error: --ops: \"abc\": invalid digit".to_string(),
        ),
        (
            &["--bench", "nope"],
            "error: --bench: unknown benchmark nope".into(),
        ),
        (
            &["--trace-file", &trace],
            format!("error: --trace-file: {trace}: "),
        ),
        (
            &["--dump-trace", &dump],
            format!("error: --dump-trace: {dump}: "),
        ),
    ] {
        let (code, stdout, stderr) = cli(flags);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(stderr.starts_with(&needle), "{flags:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flags:?}: {stderr}");
        assert!(stdout.is_empty(), "{flags:?} ran: {stdout}");
    }
}

#[test]
fn config_flags_set_the_keys_they_name() {
    let (code, faulty, _) = cli(&["--fault-rate", "2000", "--seed", "5"]);
    assert_eq!(code, Some(0));
    assert!(!faulty.contains(" lost=0 "), "{faulty}");
    let (code, small, _) = cli(&["--mesh", "2x2", "--protocol", "dir"]);
    assert_eq!(code, Some(0));
    assert!(small.starts_with("barnes DirCMP "), "{small}");
    assert_ne!(
        small,
        cli(&["--protocol", "dir"]).1,
        "the mesh changed the run"
    );
}

#[test]
fn trace_line_prints_the_events_of_the_lines_it_names() {
    let (code, _, traced) = cli(&["--trace-line", "0x100"]);
    assert_eq!(code, Some(0));
    assert!(traced.lines().count() > 10, "{traced}");
    assert!(traced.lines().all(|l| l.starts_with('[')), "{traced}");
    let (_, _, quiet) = cli(&[]);
    assert!(quiet.is_empty(), "{quiet}");
}

/// A reader that stops early (`ftdircmp-cli ... | head -1`) ends the
/// output quietly, whichever text the run prints.
#[test]
fn a_closed_pipe_ends_the_output_quietly() {
    for flags in [
        &["--bench", "list"][..],
        &["--bench", "water-sp", "--ops", "50"],
    ] {
        // Closed before the binary writes, as `| true` does.
        let mut child = Command::new(env!("CARGO_BIN_EXE_ftdircmp-cli"))
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{flags:?}: {:?}: {stderr}",
            out.status
        );
        assert!(stderr.is_empty(), "{flags:?}: {stderr}");
    }
}
