//! Per-layer probes: each calls one layer directly through its public
//! functions and repeats at least [`REPS`] times. A host-time probe reports
//! its fastest repetition (a `_p50`/`_p90` probe the percentile of its
//! samples) and says what the layer costs on its own; the few exact counts
//! (`noc.drop_share_*`) repeat for a given seed.
//!
//! Which end-to-end metric each probe should move, and on which workload,
//! is written down in `benchmark/README.md` before any change is measured.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ftdircmp_bench::benchmarks;
use ftdircmp_bench::campaign::{run_units_caught, Campaign, Unit};
use ftdircmp_core::checker::{Checker, Perm};
use ftdircmp_core::{LineAddr, NodeId, System, SystemConfig, Workload};
use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, Mesh, MeshConfig, RouterId, RoutingMode,
    VcClass,
};
use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::queue::Queue;
use ftdircmp_serve::runner::execute_job;
use ftdircmp_serve::store::Store;
use ftdircmp_sim::{Cycle, DetRng, EventQueue};
use ftdircmp_workloads::WorkloadSpec;

use crate::daemon::{self, Client, Daemon};
use crate::grid::{self, Grid, GridKind, WARMUP_PCT};
use crate::util::{fastest, fresh_dir, median, peak_rss_mb, percentile, Metrics, Res};

const REPS: usize = 5;

/// Fastest over [`REPS`] of `run`'s wall time in nanoseconds, each on a
/// fresh untimed `setup`.
fn timed<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            run(state);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    fastest(&samples)
}

/// [`timed`] for work that needs no set-up.
fn fastest_ns(mut f: impl FnMut()) -> f64 {
    timed(|| (), |()| f())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe, in layer order.
pub fn run_all(m: &mut Metrics, serve_bin: &Path, out_dir: &Path, seed: u64) -> Res<()> {
    sim(m);
    noc(m, seed);
    let suite: Vec<Workload> = benchmarks()
        .iter()
        .map(|spec| spec.generate(16, 1000 + seed))
        .collect();
    core(m, &suite, seed)?;
    workloads(m, seed);
    bench(m, seed)?;
    serve(m, serve_bin, out_dir, seed)
}

/// Delay distribution recorded from a fig3 release profile, as in
/// `crates/bench/benches/simulator.rs`: ~55% hops and cache latencies of
/// 1–63 cycles, ~9% memory accesses at 160, ~33% detection-timeout arms at
/// 1k–8k cycles.
fn recorded_delays(n: usize) -> Vec<u64> {
    let mut rng = DetRng::from_seed(0xBE9C);
    (0..n)
        .map(|_| match rng.below(100) {
            0..=6 => 1,
            7..=23 => rng.range(2, 4),
            24..=31 => rng.range(4, 8),
            32..=38 => rng.range(8, 16),
            39..=50 => rng.range(16, 32),
            51..=54 => rng.range(32, 64),
            55..=56 => rng.range(64, 128),
            57..=65 => 160,
            66..=74 => rng.range(1_024, 2_048),
            75..=95 => rng.range(2_048, 4_096),
            _ => rng.range(4_096, 8_192),
        })
        .collect()
}

/// Schedule+pop at the steady in-flight population a 16-tile fig3 run
/// sustains (every pop schedules one successor), with a payload the size
/// of the simulator's `Event`.
fn sim(m: &mut Metrics) {
    const POPS: u64 = 200_000;
    const IN_FLIGHT: u64 = 1024;
    let delays = recorded_delays(4096);
    let churn = |mut q: EventQueue<[u64; 6]>| {
        for i in 0..IN_FLIGHT {
            q.schedule(Cycle::new(i % 8), [i; 6]);
        }
        for i in 0..POPS as usize {
            let (now, ev) = q.pop().expect("queue never drains");
            q.schedule(now + delays[i % delays.len()], [ev[0].wrapping_mul(31); 6]);
            black_box(ev);
        }
        black_box(q.len());
    };
    let fifo = timed(EventQueue::new, churn);
    let seeded = timed(|| EventQueue::with_schedule_seed(0x5EED), churn);
    m.push("sim.queue_ns_per_op", fifo / POPS as f64, "ns");
    m.push("sim.queue_seeded_ns_per_op", seeded / POPS as f64, "ns");
}

/// A flap and a burst whose windows stay open for the whole probe.
fn open_domains() -> FaultDomainConfig {
    const OPEN: u64 = 1 << 40;
    FaultDomainConfig::events(vec![
        FaultEvent::LinkFlap {
            from: RouterId::new(5),
            dir: Direction::East,
            start: 0,
            end: OPEN,
        },
        FaultEvent::RegionBurst {
            epicenter: RouterId::new(10),
            radius: 1,
            start: 0,
            end: OPEN,
        },
    ])
}

fn noc(m: &mut Metrics, seed: u64) {
    const SENDS: u64 = 100_000;
    let mesh_with = |faults: FaultConfig, routing: RoutingMode| {
        faults
            .validate()
            .expect("probe fault configuration is valid");
        let config = MeshConfig {
            faults,
            routing,
            ..MeshConfig::default()
        };
        move || Mesh::new(config.clone(), DetRng::from_seed(seed))
    };
    // The traffic shape of the `mesh_send_10k` criterion bench: all 16
    // routers, one data message in three.
    let send_all = |mesh: &mut Mesh| {
        for i in 0..SENDS {
            let src = RouterId::new((i % 16) as u16);
            let dst = RouterId::new(((i * 7 + 3) % 16) as u16);
            let size = if i % 3 == 0 { 72 } else { 8 };
            black_box(mesh.send(Cycle::new(i), src, dst, size, VcClass::Request));
        }
    };
    let lottery = FaultConfig::per_million(2000.0);
    let domains = FaultConfig::none().with_domains(open_domains());
    let cases = [
        (
            "noc.send_ns_clean",
            FaultConfig::none(),
            RoutingMode::DimensionOrdered,
        ),
        (
            "noc.send_ns_lottery",
            lottery.clone(),
            RoutingMode::DimensionOrdered,
        ),
        (
            "noc.send_ns_domains",
            domains.clone(),
            RoutingMode::DimensionOrdered,
        ),
        (
            "noc.send_ns_adaptive",
            domains.clone(),
            RoutingMode::Adaptive,
        ),
    ];
    for (name, faults, routing) in cases {
        let ns = timed(mesh_with(faults, routing), |mut mesh| send_all(&mut mesh));
        m.push(name, ns / SENDS as f64, "ns");
    }

    const SWAPS: usize = 1_000;
    let swap_ns = timed(
        mesh_with(FaultConfig::none(), RoutingMode::DimensionOrdered),
        |mut mesh| {
            for i in 0..SWAPS {
                let next = if i % 2 == 0 { &lottery } else { &domains };
                mesh.set_fault_config(next.clone());
            }
            black_box(mesh.stats().total_messages());
        },
    );
    m.push(
        "noc.set_fault_config_us",
        swap_ns / SWAPS as f64 / 1e3,
        "us",
    );

    for (name, faults) in [
        ("noc.drop_share_lottery", lottery),
        ("noc.drop_share_domains", domains),
    ] {
        let mut mesh = mesh_with(faults, RoutingMode::DimensionOrdered)();
        send_all(&mut mesh);
        m.push(
            name,
            mesh.stats().total_dropped() as f64 / SENDS as f64,
            "share",
        );
    }
}

/// `System::run_workload` over the whole suite under one configuration:
/// host nanoseconds per simulated event.
fn ns_per_event(suite: &[Workload], config: &SystemConfig, seed: u64) -> Res<f64> {
    let mut events = 0u64;
    let mut failure = None;
    let ns = fastest_ns(|| {
        events = 0;
        for wl in suite {
            match System::run_workload(config.clone().with_seed(1000 + seed), wl) {
                Ok(r) => events += r.events,
                Err(e) => failure = Some(format!("{}: {e}", wl.name)),
            }
        }
    });
    match failure {
        Some(e) => Err(format!("core probe run failed: {e}")),
        None => Ok(ns / events as f64),
    }
}

fn core(m: &mut Metrics, suite: &[Workload], seed: u64) -> Res<()> {
    let ft = grid::ft_config();
    let new_ns = fastest_ns(|| {
        for wl in suite {
            black_box(System::new(ft.clone(), wl).expect("valid configuration"));
        }
    });
    m.push("core.new_us", new_ns / suite.len() as f64 / 1e3, "us");

    let cases = [
        ("core.ns_per_event_dircmp", SystemConfig::dircmp()),
        ("core.ns_per_event_ft", ft.clone()),
        (
            "core.ns_per_event_ft2000",
            ft.clone().with_fault_rate(2000.0),
        ),
        (
            "core.ns_per_event_flap",
            ft.clone().with_fault_domains(grid::flap_domain(20_000)),
        ),
    ];
    for (name, config) in cases {
        m.push(name, ns_per_event(suite, &config, seed)?, "ns");
    }

    // Checkpoint and fork at the campaign runner's warm-up point.
    let ocean = suite
        .iter()
        .find(|wl| wl.name == "ocean")
        .ok_or("suite has no ocean workload")?;
    let mut sys =
        System::new(ft.clone().with_seed(1000 + seed), ocean).map_err(|e| e.to_string())?;
    let target = (ocean.total_mem_ops() as f64 * (WARMUP_PCT / 100.0)).ceil() as u64;
    sys.run_until_retired(target).map_err(|e| e.to_string())?;
    const COPIES: usize = 20;
    let snapshot_ns = fastest_ns(|| {
        for _ in 0..COPIES {
            black_box(sys.snapshot());
        }
    });
    let snap = sys.snapshot();
    let restore_ns = fastest_ns(|| {
        for _ in 0..COPIES {
            black_box(System::restore(&snap));
        }
    });
    m.push("core.snapshot_us", snapshot_ns / COPIES as f64 / 1e3, "us");
    m.push("core.restore_us", restore_ns / COPIES as f64 / 1e3, "us");

    // The invariant checker driven directly: a violation-free round of
    // grant, store, load, release per line.
    const ROUNDS: u64 = 100_000;
    const LINES: u64 = 4096;
    let checker_ns = |enabled: bool| {
        let ns = timed(
            || Checker::new(enabled),
            |mut c| {
                for i in 0..ROUNDS {
                    let (line, at) = (LineAddr(i % LINES), Cycle::new(i));
                    let node = NodeId::L1(((i / LINES) % 16) as u8);
                    let version = i / LINES + 1;
                    c.set_perm(node, line, Perm::Write, at);
                    c.store_committed(node, line, version, at);
                    c.load_observed(node, line, version, at);
                    c.set_perm(node, line, Perm::None, at);
                }
                assert!(c.violations().is_empty(), "checker probe must stay clean");
            },
        );
        ns / (ROUNDS * 4) as f64
    };
    m.push("core.checker_ns_per_call", checker_ns(true), "ns");
    m.push("core.checker_off_ns_per_call", checker_ns(false), "ns");
    Ok(())
}

fn workloads(m: &mut Metrics, seed: u64) {
    let specs = benchmarks();
    let ns = fastest_ns(|| {
        for spec in &specs {
            black_box(spec.generate(16, 1000 + seed));
        }
    });
    m.push("workloads.generate_us", ns / specs.len() as f64 / 1e3, "us");
}

fn bench(m: &mut Metrics, seed: u64) -> Res<()> {
    let opts = |jobs: usize, fork: bool| Campaign {
        jobs,
        progress: false,
        warmup_checkpoint: fork.then_some(WARMUP_PCT),
    };
    let all_ok = |what: &str, results: &[Result<_, _>]| -> Res<()> {
        match results.iter().find_map(|r| r.as_ref().err()) {
            Some(e) => Err(format!("bench probe {what} failed: {e}")),
            None => Ok(()),
        }
    };

    // Fan-out cost with almost nothing to run per unit.
    const TINY_UNITS: u64 = 256;
    let tiny_spec = WorkloadSpec::parse("barnes:ops=1")?;
    let tiny: Vec<Unit> = (0..TINY_UNITS)
        .map(|i| Unit {
            label: "barnes:ops=1".to_string(),
            spec: tiny_spec.clone(),
            config: grid::ft_config(),
            seed: seed + i,
        })
        .collect();
    for (name, jobs) in [
        ("bench.fanout_us_per_unit_j1", 1),
        ("bench.fanout_us_per_unit_j2", 2),
    ] {
        let mut check = Ok(());
        let ns = fastest_ns(|| {
            check = all_ok(name, &run_units_caught(&tiny, &opts(jobs, false)));
        });
        check?;
        m.push(name, ns / TINY_UNITS as f64 / 1e3, "us");
    }

    // Three suite workloads of the fig3 grid: classic one unit at a time
    // (unit latencies), then checkpoint-fork at one and two workers.
    let grid = Grid::build(GridKind::Fig3, &benchmarks()[..3], seed..seed + 1);
    let (mut classic, mut fork_j1, mut fork_j2, mut unit_ms) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPS {
        let t = Instant::now();
        for unit in &grid.units {
            let tu = Instant::now();
            all_ok(
                "classic",
                &run_units_caught(std::slice::from_ref(unit), &opts(1, false)),
            )?;
            unit_ms.push(ms_since(tu));
        }
        classic.push(ms_since(t));
        for (jobs, walls) in [(1, &mut fork_j1), (2, &mut fork_j2)] {
            let t = Instant::now();
            all_ok("fork", &run_units_caught(&grid.units, &opts(jobs, true)))?;
            walls.push(ms_since(t));
        }
    }
    m.push(
        "bench.fork_saving",
        fastest(&classic) / fastest(&fork_j1),
        "ratio",
    );
    m.push(
        "bench.par_speedup",
        fastest(&fork_j1) / fastest(&fork_j2),
        "ratio",
    );
    m.push("bench.unit_ms_p50", median(&unit_ms), "ms");
    m.push("bench.unit_ms_p90", percentile(&unit_ms, 90.0), "ms");
    Ok(())
}

/// A job summary shaped like the stored one of a 252-unit campaign.
fn summary_text() -> String {
    let units = (0..252u64)
        .map(|i| {
            Json::obj(vec![
                ("unit", Json::num_u64(i)),
                (
                    "label",
                    Json::str(format!("water-nsq/ftdircmp-{}", i % 7 * 125)),
                ),
                ("seed", Json::num_u64(i % 3)),
                ("status", Json::str("ok")),
                ("cycles", Json::num_u64(61_000 + i * 37)),
                ("events", Json::num_u64(175_000 + i * 101)),
                ("total_mem_ops", Json::num_u64(9_600 + i)),
                ("violations", Json::num_u64(0)),
                ("messages_lost", Json::num_u64(i % 5)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("id", Json::str("j000001")),
        ("kind", Json::str("campaign")),
        ("label", Json::str("fig3")),
        ("outcome", Json::str("ok")),
        ("total_units", Json::num_u64(252)),
        ("units", Json::Arr(units)),
    ])
    .to_string()
}

fn serve(m: &mut Metrics, serve_bin: &Path, out_dir: &Path, seed: u64) -> Res<()> {
    const SAMPLES: usize = 24;
    let io = |e: std::io::Error| format!("serve probe: {e}");

    let text = summary_text();
    let parsed = Json::parse(&text)?;
    let parse_ns = fastest_ns(|| {
        black_box(Json::parse(black_box(&text)).expect("summary parses"));
    });
    let print_ns = fastest_ns(|| {
        black_box(black_box(&parsed).to_string());
    });
    // bytes per nanosecond × 1e3 = MB/s.
    m.push(
        "serve.json_parse_mb_per_s",
        text.len() as f64 / parse_ns * 1e3,
        "MB/s",
    );
    m.push(
        "serve.json_print_mb_per_s",
        text.len() as f64 / print_ns * 1e3,
        "MB/s",
    );

    let jobs = daemon::generate_jobs(seed, SAMPLES)?;
    const PARSES: usize = 200;
    let from_json_ns = fastest_ns(|| {
        for _ in 0..PARSES {
            black_box(JobSpec::from_json(black_box(&jobs[0].json)).expect("job validates"));
        }
    });
    m.push(
        "serve.jobspec_from_json_us",
        from_json_ns / PARSES as f64 / 1e3,
        "us",
    );

    // Journal appends (fsync) through the queue, one job at a time.
    let queue_root = out_dir.join("probe-queue");
    fresh_dir(&queue_root)?;
    let queue = Queue::open(Store::open(&queue_root).map_err(io)?, 2 * SAMPLES).map_err(io)?;
    let (mut submit_us, mut done_us) = (vec![], vec![]);
    for job in &jobs {
        let spec = JobSpec::from_json(&job.json)?;
        let t = Instant::now();
        queue.submit(spec)?;
        submit_us.push(ms_since(t) * 1e3);
    }
    for _ in &jobs {
        let taken = queue.take_next().ok_or("probe queue shut down")?;
        let t = Instant::now();
        queue.mark_done(&taken.id, "ok");
        done_us.push(ms_since(t) * 1e3);
    }
    m.push("serve.queue_submit_us_p50", median(&submit_us), "us");
    m.push("serve.queue_mark_done_us_p50", median(&done_us), "us");

    // Unit-record appends (sync_data) and summary tmp+rename.
    let store_root = out_dir.join("probe-store");
    fresh_dir(&store_root)?;
    let store = Store::open(&store_root).map_err(io)?;
    let record = &parsed
        .get("units")
        .and_then(Json::as_arr)
        .ok_or("no units")?[0];
    let (mut append_us, mut summary_us) = (vec![], vec![]);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        store.append_unit_record("probe", record).map_err(io)?;
        append_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        store.write_summary("probe", &text).map_err(io)?;
        summary_us.push(ms_since(t) * 1e3);
    }
    m.push("serve.store_append_us_p50", median(&append_us), "us");
    m.push("serve.store_summary_us_p50", median(&summary_us), "us");

    // Boot-time replay of a 2000-line journal (part of daemon set-up).
    let replay_root = out_dir.join("probe-replay");
    fresh_dir(&replay_root)?;
    let replay_store = Store::open(&replay_root).map_err(io)?;
    let mut journal = String::new();
    for i in 0..1000 {
        let id = format!("j{:06}", i + 1);
        let job = &jobs[i % jobs.len()].json;
        let submit = Json::obj(vec![
            ("op", Json::str("submit")),
            ("id", Json::str(&id)),
            ("job", JobSpec::from_json(job)?.to_json()),
        ]);
        let done = Json::obj(vec![
            ("op", Json::str("done")),
            ("id", Json::str(&id)),
            ("outcome", Json::str("ok")),
        ]);
        writeln!(journal, "{submit}\n{done}").expect("writing to a String");
    }
    std::fs::write(replay_store.journal_path(), journal).map_err(io)?;
    let mut replayed = Ok(0);
    let replay_ns = fastest_ns(|| {
        replayed = Queue::open(replay_store.clone(), 64).map(|q| q.list().len());
    });
    if replayed.map_err(io)? != 1000 {
        return Err("journal replay lost jobs".to_string());
    }
    m.push("serve.queue_replay_ms", replay_ns / 1e6, "ms");

    // The executor's work for one job, without queue or socket.
    let exec_root = out_dir.join("probe-exec");
    fresh_dir(&exec_root)?;
    let exec_store = Store::open(&exec_root).map_err(io)?;
    let mut exec_ms = vec![];
    for (i, job) in jobs.iter().enumerate() {
        let spec = JobSpec::from_json(&job.json)?;
        let t = Instant::now();
        execute_job(&exec_store, &format!("p{i:06}"), &spec, 1, &|_, _| {}).map_err(io)?;
        exec_ms.push(ms_since(t));
    }
    m.push("serve.execute_job_ms_p50", median(&exec_ms), "ms");

    // Round trips against a live daemon.
    let daemon = Daemon::spawn(serve_bin, &out_dir.join("probe-daemon"))?;
    let mut client = Client::connect(&daemon.addr)?;
    let mut ping_ms = vec![];
    for _ in 0..SAMPLES {
        let t = Instant::now();
        client.ping()?;
        ping_ms.push(ms_since(t));
    }
    let trips = daemon::run_pass(&mut client, &jobs, None)?;
    let phase =
        |f: &dyn Fn(&daemon::JobTrip) -> f64| median(&trips.iter().map(f).collect::<Vec<f64>>());
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    m.push("serve.ping_rtt_ms_p50", median(&ping_ms), "ms");
    m.push("serve.ping_rtt_ms_min", percentile(&ping_ms, 0.0), "ms");
    m.push(
        "serve.submit_rtt_ms_p50",
        phase(&|t| ms(t.start, t.submitted)),
        "ms",
    );
    m.push(
        "serve.wait_done_ms_p50",
        phase(&|t| ms(t.submitted, t.done)),
        "ms",
    );
    m.push(
        "serve.result_rtt_ms_p50",
        phase(&|t| ms(t.done, t.end)),
        "ms",
    );
    m.push("serve.daemon_rss_mb", peak_rss_mb(daemon.pid())?, "MiB");
    Ok(())
}
