//! Campaign service daemon CLI.
//!
//! ```text
//! ftdircmp-serve serve     --root DIR [--addr HOST:PORT] [--jobs N] [--max-pending N]
//! ftdircmp-serve submit    (--addr HOST:PORT | --root DIR) [--file JOB.json] [--wait]
//! ftdircmp-serve ctl       (--addr HOST:PORT | --root DIR) '<request json>'
//! ftdircmp-serve run-local --root DIR --file JOB.json [--id ID] [--jobs N]
//! ftdircmp-serve json-check
//! ```
//!
//! `submit` reads the job spec from `--file` (or stdin), submits it and
//! prints the assigned id; with `--wait` it watches the stream and exits
//! when the job's done event arrives (exit status reflects the outcome).
//! `run-local` executes the same job synchronously through the identical
//! code path the daemon uses, so its stored summary is byte-comparable.
//! `json-check` validates stdin as line-delimited JSON (used by
//! `scripts/bench.sh` to guard trajectory appends). A flag the subcommand
//! does not take, or a malformed count, exits with status 2.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ftdircmp_bench::BenchArgs;
use ftdircmp_core::print_stdout;
use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::runner::{execute_job, OUTCOME_OK};
use ftdircmp_serve::server::{serve, ServeOptions};
use ftdircmp_serve::store::Store;

/// A subcommand: its arguments and their positionals in, exit code out.
type Command = fn(&BenchArgs, &[&str]) -> Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (run, flags): (Command, &[&str]) = match cmd.as_str() {
        "serve" => (cmd_serve, &["--root", "--addr", "--jobs", "--max-pending"]),
        "submit" => (cmd_submit, &["--addr", "--root", "--file", "--wait"]),
        "ctl" => (cmd_ctl, &["--addr", "--root"]),
        "run-local" => (cmd_run_local, &["--root", "--file", "--id", "--jobs"]),
        "json-check" => (|_, _| cmd_json_check(), &[]),
        "--help" | "-h" | "help" => {
            print_stdout(&format!("{USAGE}\n"));
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("ftdircmp-serve: unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let args = BenchArgs::from_vec(rest.to_vec());
    let positionals = args.positionals(flags).unwrap_or_else(|e| e.exit());
    match run(&args, &positionals) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ftdircmp-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  ftdircmp-serve serve     --root DIR [--addr HOST:PORT] [--jobs N] [--max-pending N]
  ftdircmp-serve submit    (--addr HOST:PORT | --root DIR) [--file JOB.json] [--wait]
  ftdircmp-serve ctl       (--addr HOST:PORT | --root DIR) '<request json>'
  ftdircmp-serve run-local --root DIR --file JOB.json [--id ID] [--jobs N]
  ftdircmp-serve json-check";

/// Count flag `name`, `default` when absent; a malformed one exits with 2.
fn count(f: &BenchArgs, name: &'static str, default: u64) -> usize {
    f.u64_flag(name, default).unwrap_or_else(|e| e.exit()) as usize
}

fn cmd_serve(f: &BenchArgs, _: &[&str]) -> Result<ExitCode, String> {
    let root = f.value_of("--root").ok_or("serve needs --root DIR")?;
    let options = ServeOptions {
        addr: f.value_of("--addr").unwrap_or("127.0.0.1:0").to_string(),
        jobs: count(f, "--jobs", 1),
        max_pending: count(f, "--max-pending", 64),
    };
    serve(Path::new(root), &options).map_err(|e| format!("serve: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Resolves a daemon address from `--addr` or a queue root's `port` file.
fn resolve_addr(f: &BenchArgs) -> Result<String, String> {
    if let Some(addr) = f.value_of("--addr") {
        return Ok(addr.to_string());
    }
    let root = f
        .value_of("--root")
        .ok_or("need --addr HOST:PORT or --root DIR (with a running daemon)")?;
    let port_file = PathBuf::from(root).join("port");
    let text = std::fs::read_to_string(&port_file)
        .map_err(|e| format!("reading {}: {e}", port_file.display()))?;
    Ok(format!("127.0.0.1:{}", text.trim()))
}

fn read_job_text(f: &BenchArgs) -> Result<String, String> {
    if let Some(path) = f.value_of("--file") {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    } else {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, request: &Json) -> Result<(), String> {
        let mut line = request.to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending request: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Json::parse(line.trim()).map_err(|e| format!("bad reply {line:?}: {e}"))
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(request)?;
        self.recv()
    }
}

fn expect_ok(reply: &Json) -> Result<(), String> {
    if reply.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon refused the request")
            .to_string())
    }
}

fn cmd_submit(f: &BenchArgs, _: &[&str]) -> Result<ExitCode, String> {
    let addr = resolve_addr(f)?;
    let text = read_job_text(f)?;
    let job_json = Json::parse(text.trim()).map_err(|e| format!("job spec: {e}"))?;
    // Validate locally so the error names the field, then send verbatim.
    JobSpec::from_json(&job_json)?;

    let mut client = Client::connect(&addr)?;
    if f.has("--wait") {
        // Subscribe before submitting so no event can be missed.
        let watch = client.call(&Json::obj(vec![("cmd", Json::str("watch"))]))?;
        expect_ok(&watch)?;
    }
    let reply = client.call(&Json::obj(vec![
        ("cmd", Json::str("submit")),
        ("job", job_json),
    ]))?;
    expect_ok(&reply)?;
    let id = reply
        .get("id")
        .and_then(Json::as_str)
        .ok_or("daemon reply missing id")?
        .to_string();
    print_stdout(&format!("{id}\n"));
    if !f.has("--wait") {
        return Ok(ExitCode::SUCCESS);
    }
    loop {
        let event = client.recv()?;
        if event.get("id").and_then(Json::as_str) != Some(&id) {
            continue;
        }
        match event.get("event").and_then(Json::as_str) {
            Some("progress") => {
                let done = event.get("done_units").and_then(Json::as_u64).unwrap_or(0);
                let total = event.get("total_units").and_then(Json::as_u64).unwrap_or(0);
                eprintln!("{id}: {done}/{total} units");
            }
            Some("done") => {
                let outcome = event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown");
                eprintln!("{id}: {outcome}");
                return Ok(if outcome == OUTCOME_OK {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            _ => {}
        }
    }
}

fn cmd_ctl(f: &BenchArgs, positionals: &[&str]) -> Result<ExitCode, String> {
    let addr = resolve_addr(f)?;
    let request_text = positionals
        .first()
        .ok_or("ctl needs a request, e.g. '{\"cmd\":\"list\"}'")?;
    let request = Json::parse(request_text).map_err(|e| format!("request: {e}"))?;
    let mut client = Client::connect(&addr)?;
    let reply = client.call(&request)?;
    print_stdout(&format!("{reply}\n"));
    Ok(if reply.get("ok") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run_local(f: &BenchArgs, _: &[&str]) -> Result<ExitCode, String> {
    let root = f.value_of("--root").ok_or("run-local needs --root DIR")?;
    let text = read_job_text(f)?;
    let job_json = Json::parse(text.trim()).map_err(|e| format!("job spec: {e}"))?;
    let spec = JobSpec::from_json(&job_json)?;
    let jobs = count(f, "--jobs", 1);
    let store = Store::open(Path::new(root)).map_err(|e| format!("opening {root}: {e}"))?;
    // Default id "local": run-local roots are single-job scratch
    // directories. `--id j000001` makes the stored summary byte-comparable
    // with a daemon-produced result for the same spec (CI smoke test).
    let id = f.value_of("--id").unwrap_or("local");
    let outcome = execute_job(&store, id, &spec, jobs, &|done, total| {
        eprintln!("{id}: {done}/{total} units");
    })
    .map_err(|e| format!("running job: {e}"))?;
    let summary = store
        .read_summary(id)
        .map_err(|e| format!("reading summary: {e}"))?
        .ok_or("summary missing after run")?;
    print_stdout(&summary);
    Ok(if outcome == OUTCOME_OK {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_json_check() -> Result<ExitCode, String> {
    let stdin = std::io::stdin();
    let mut bad = 0usize;
    for (n, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = Json::parse(line.trim()) {
            eprintln!("line {}: {e}", n + 1);
            bad += 1;
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
