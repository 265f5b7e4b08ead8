//! Unit tests for the system driver.

use crate::config::SystemConfig;
use crate::ids::{Addr, LineAddr};
use crate::serial::SerialNum;
use crate::system::{RunError, StalledCore, System};
use crate::trace::{CoreTrace, TraceOp, Workload};
use crate::tracelog::{CollectSink, TraceEventKind};

fn store(line: u64) -> TraceOp {
    TraceOp::Store(Addr(line * 64))
}

fn load(line: u64) -> TraceOp {
    TraceOp::Load(Addr(line * 64))
}

#[test]
fn empty_workload_finishes_instantly() {
    let wl = Workload::new("empty", vec![]);
    let r = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
    assert_eq!(r.cycles, 0);
    assert_eq!(r.total_ops, 0);
    assert_eq!(r.stats.total_messages(), 0);
}

#[test]
fn think_only_workload_touches_no_memory() {
    let wl = Workload::new(
        "think",
        vec![CoreTrace::new(vec![
            TraceOp::Think(100),
            TraceOp::Think(50),
        ])],
    );
    let r = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
    assert_eq!(r.total_ops, 2);
    assert_eq!(r.total_mem_ops, 0);
    assert_eq!(r.stats.total_messages(), 0);
    // Retire-then-wait semantics: the final Think's delay is not part of
    // the measured execution time.
    assert!(r.cycles >= 100);
}

#[test]
fn too_many_traces_is_a_config_error() {
    let wl = Workload::new("big", vec![CoreTrace::default(); 17]);
    match System::new(SystemConfig::ftdircmp(), &wl) {
        Err(RunError::InvalidConfig(e)) => assert!(e.contains("17 traces")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn invalid_config_is_rejected() {
    let mut cfg = SystemConfig::ftdircmp();
    cfg.tiles = 9;
    let wl = Workload::new("x", vec![]);
    assert!(matches!(
        System::new(cfg, &wl),
        Err(RunError::InvalidConfig(_))
    ));
}

#[test]
fn trace_sink_observes_messages_and_retirements() {
    let (sink, handle) = CollectSink::new(100_000);
    let wl = Workload::new(
        "traced",
        vec![CoreTrace::new(vec![store(3), load(3), TraceOp::Think(5)])],
    );
    let mut sys = System::new(SystemConfig::ftdircmp(), &wl).unwrap();
    sys.set_trace_sink(Box::new(sink));
    let r = sys.run().unwrap();
    assert!(r.violations.is_empty());
    let events = handle.take();
    let delivered = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Delivered(_)))
        .count();
    let retired = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::OpRetired { .. }))
        .count();
    assert!(delivered >= 4, "full miss needs several messages");
    assert_eq!(retired as u64, r.total_ops);
    // Events are time-ordered.
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
}

/// The suite workload `name` for `cores` cores. The generator crate builds
/// the traces of this crate's library build, whose types differ from this
/// test build's, so each op is carried over through its `Debug` form
/// (`Load(Addr(64))`, `Store(Addr(64))`, `Think(5)`).
fn suite_workload(name: &str, cores: u8, seed: u64) -> Workload {
    let spec = ftdircmp_workloads::WorkloadSpec::named(name).expect("suite workload");
    let op = |text: String| {
        let (kind, arg) = text.split_once('(').expect("an op with an argument");
        let n = arg.trim_matches(|c: char| !c.is_ascii_digit());
        let n: u64 = n.parse().expect("a number");
        match kind {
            "Load" => TraceOp::Load(Addr(n)),
            "Store" => TraceOp::Store(Addr(n)),
            "Think" => TraceOp::Think(n),
            other => panic!("unknown trace op {other}"),
        }
    };
    let generated = spec.generate(cores, seed);
    let traces = generated.traces.iter();
    let traces = traces.map(|t| t.ops().iter().map(|o| op(format!("{o:?}"))).collect());
    Workload::new(name, traces.collect())
}

/// DirCMP has no serial numbers, no ownership handshake and no timers: every
/// message carries `SerialNum::ZERO`, none piggybacks an AckO, and no
/// timeout fires. The controllers rely on this to test serials, piggybacked
/// AckOs and timers without asking which protocol runs.
#[test]
fn dircmp_sends_no_serial_no_piggybacked_acko_and_fires_no_timer() {
    let config = SystemConfig::dircmp();
    let wl = suite_workload("ocean", config.tiles, 7);
    let cap = 10_000_000;
    let (sink, handle) = CollectSink::new(cap);
    let mut sys = System::new(config, &wl).unwrap();
    sys.set_trace_sink(Box::new(sink));
    let r = sys.run().unwrap();
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    let events = handle.take();
    assert!(events.len() < cap, "every event collected");
    let mut delivered = 0;
    for e in &events {
        match &e.kind {
            TraceEventKind::Delivered(m) => {
                assert_eq!(m.serial, SerialNum::ZERO, "{m:?}");
                assert!(!m.piggy_acko, "{m:?}");
                delivered += 1;
            }
            TraceEventKind::TimeoutFired { .. } => panic!("a timer fired: {e:?}"),
            TraceEventKind::OpRetired { .. } => {}
        }
    }
    assert!(delivered > 10_000, "{delivered} messages");
}

#[test]
fn report_totals_match_workload() {
    let traces = vec![
        CoreTrace::new(vec![store(1), store(2), load(1)]),
        CoreTrace::new(vec![load(1), load(2), TraceOp::Think(9)]),
    ];
    let wl = Workload::new("totals", traces);
    let r = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
    assert_eq!(r.total_ops, 6);
    assert_eq!(r.total_mem_ops, 5);
    assert_eq!(r.workload, "totals");
    assert_eq!(r.protocol, crate::config::ProtocolVariant::FtDirCmp);
    assert_eq!(r.messages_lost, 0);
}

#[test]
fn first_stuck_names_the_first_core_waiting_on_a_line() {
    let stalled = |core, lines: &[u64]| StalledCore {
        core,
        pending_lines: lines.iter().map(|&l| LineAddr(l)).collect(),
        mem_ops_done: 0,
    };
    let deadlock = RunError::Deadlock {
        at: 9,
        last_progress: 1,
        stalled: vec![
            stalled(2, &[]),
            stalled(5, &[0x40, 0x80]),
            stalled(7, &[0xc0]),
        ],
        diagnostics: String::new(),
    };
    assert_eq!(deadlock.first_stuck(), Some((5, LineAddr(0x40))));
    assert_eq!(RunError::InvalidConfig("x".into()).first_stuck(), None);
}

#[test]
fn diagnostics_lists_inflight_state() {
    let wl = Workload::new("d", vec![CoreTrace::new(vec![store(3)])]);
    let sys = System::new(SystemConfig::ftdircmp(), &wl).unwrap();
    // Nothing in flight before the run starts.
    assert!(sys.diagnostics().is_empty());
}

#[test]
fn relative_metrics_against_self_are_unity() {
    let wl = Workload::new("rel", vec![CoreTrace::new(vec![store(1), load(2)])]);
    let r = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
    assert!((r.relative_execution_time(&r) - 1.0).abs() < 1e-12);
    assert!(r.message_overhead(&r).abs() < 1e-12);
    assert!(r.byte_overhead(&r).abs() < 1e-12);
}

#[test]
fn same_tile_access_stays_local() {
    // Core 3 accessing a line homed at bank 3: request/response never cross
    // the mesh (loopback), but memory traffic does.
    let mut traces = vec![CoreTrace::default(); 16];
    traces[3] = CoreTrace::new(vec![load(3)]);
    let wl = Workload::new("local", traces);
    let r = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
    assert!(r.noc.local_deliveries() >= 2, "GetS and grant are local");
}
