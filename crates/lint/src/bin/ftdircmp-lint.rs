//! `ftdircmp-lint` — static protocol analyzer for the reified FtDirCMP
//! transition tables.
//!
//! ```text
//! ftdircmp-lint check [--spec PATH | --no-spec]
//! ftdircmp-lint dump [L1|L2|Mem]
//! ftdircmp-lint write-spec [--spec PATH]
//! ```
//!
//! Output goes to stdout in one write; a reader that closes the pipe early
//! (`| head`) ends it quietly.

use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

use ftdircmp_core::transitions::{table, Controller};
use ftdircmp_lint::{spec, Severity};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ftdircmp-lint check [--spec PATH | --no-spec]\n  ftdircmp-lint dump [L1|L2|Mem]\n  ftdircmp-lint write-spec [--spec PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let mut out = String::new();
    let code = match cmd.as_str() {
        "check" => check(&args[1..], &mut out),
        "dump" => dump(&args[1..], &mut out),
        "write-spec" => write_spec(&args[1..], &mut out),
        _ => return usage(),
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("cannot write the output: {e}");
            ExitCode::FAILURE
        }
        _ => code,
    }
}

fn parse_flag<'a>(args: &'a [String], i: &mut usize, name: &str) -> Option<Option<&'a str>> {
    if args[*i] == name {
        *i += 1;
        if *i < args.len() {
            let v = &args[*i];
            *i += 1;
            Some(Some(v))
        } else {
            Some(None)
        }
    } else {
        None
    }
}

fn check(args: &[String], out: &mut String) -> ExitCode {
    let mut spec_path = Some(PathBuf::from("PROTOCOL.md"));
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--no-spec" {
            spec_path = None;
            i += 1;
        } else if let Some(v) = parse_flag(args, &mut i, "--spec") {
            let Some(p) = v else {
                return usage();
            };
            spec_path = Some(PathBuf::from(p));
        } else {
            return usage();
        }
    }

    let findings = ftdircmp_lint::run_check(spec_path.as_deref());
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    for f in &findings {
        let _ = writeln!(out, "{f}");
    }
    let rows: usize = Controller::ALL.iter().map(|&c| table(c).rows.len()).sum();
    let states: usize = Controller::ALL.iter().map(|&c| table(c).states.len()).sum();
    let _ = writeln!(
        out,
        "checked {states} states / {rows} rows across 3 controllers: {errors} error(s), {} note(s)",
        findings.len() - errors
    );
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dump(args: &[String], out: &mut String) -> ExitCode {
    let which: Vec<Controller> = match args.first().map(|s| s.to_ascii_lowercase()).as_deref() {
        None => Controller::ALL.to_vec(),
        Some("l1") => vec![Controller::L1],
        Some("l2") => vec![Controller::L2],
        Some("mem") => vec![Controller::Mem],
        Some(_) => return usage(),
    };
    for c in which {
        let t = table(c);
        let _ = writeln!(out, "### {} controller\n", c.name());
        for section in spec::Section::ALL {
            let _ = writeln!(out, "{}", spec::render_section(t, section));
        }
    }
    ExitCode::SUCCESS
}

fn write_spec(args: &[String], out: &mut String) -> ExitCode {
    let mut path = PathBuf::from("PROTOCOL.md");
    let mut i = 0;
    while i < args.len() {
        if let Some(Some(p)) = parse_flag(args, &mut i, "--spec") {
            path = PathBuf::from(p);
        } else {
            return usage();
        }
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let updated = spec::update_spec(&text);
    if updated == text {
        let _ = writeln!(out, "{} already up to date", path.display());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(&path, &updated) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let _ = writeln!(out, "updated {}", path.display());
    ExitCode::SUCCESS
}
