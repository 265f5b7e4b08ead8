//! Job types the daemon accepts, their wire format, and the deterministic
//! expansion of a campaign submission into simulation units.
//!
//! A submission is one JSON object with a `kind` discriminator:
//!
//! * `campaign` — a (workload × config × seed) grid run through the
//!   parallel checkpoint-fork campaign runner; each config is a
//!   [`SystemConfig::from_json`] document;
//! * `fault-search` — a guided fault-schedule exploration
//!   (`ftdircmp-explore`) whose minimized repros land in the result store;
//! * `replay` — replays a self-contained repro, the same JSON object an
//!   `ftdircmp-explore` repro file holds;
//! * `poison` — a test fixture that panics inside the worker, used by the
//!   quarantine integration tests (harmless: the daemon catches it).
//!
//! [`JobSpec::from_json`] validates everything up front (unknown keys and
//! benchmarks, bad protocols and configs, empty grids) so a malformed
//! submission is a typed client error, never a worker crash.

use ftdircmp_bench::campaign::{grid, Unit};
use ftdircmp_core::{ProtocolVariant, SystemConfig};
use ftdircmp_explore::repro::Repro;
use ftdircmp_workloads::WorkloadSpec;

use crate::json::Json;

/// Default cap on `seeds` per cell (guards against typo'd grids hogging
/// the queue).
pub(crate) const MAX_SEEDS: u64 = 64;

/// A validated job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-supplied display label.
    pub(crate) label: String,
    /// Scheduling priority: higher runs first; FIFO within a priority.
    pub(crate) priority: i64,
    /// What to run.
    pub(crate) kind: JobKind,
}

/// The job payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobKind {
    /// A campaign grid.
    Campaign(CampaignSpec),
    /// A guided fault-schedule exploration.
    FaultSearch(FaultSearchSpec),
    /// Replay a repro (see `ftdircmp-explore`).
    Replay {
        /// The repro, parsed and validated at submit.
        repro: Box<Repro>,
    },
    /// Test fixture: panics in the worker; the daemon must quarantine it.
    Poison,
}

impl JobKind {
    /// The `kind` a submission names this payload by.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobKind::Campaign(_) => "campaign",
            JobKind::FaultSearch(_) => "fault-search",
            JobKind::Replay { .. } => "replay",
            JobKind::Poison => "poison",
        }
    }
}

/// A campaign grid: every workload request under every configuration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignSpec {
    /// Workload requests (`"name"` or `"name:ops=N"`, see
    /// [`WorkloadSpec::parse`]).
    pub(crate) specs: Vec<String>,
    /// Configuration axis: each config document as submitted (the journal
    /// echoes it and cell labels come from it) with the config it reads to.
    pub(crate) configs: Vec<(Json, SystemConfig)>,
    /// Seeds per cell.
    pub(crate) seeds: u64,
    /// Checkpoint-fork warmup threshold (percent), if requested.
    pub(crate) warmup_checkpoint: Option<f64>,
}

/// A guided fault-schedule exploration request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultSearchSpec {
    /// A [`ProtocolVariant`] name, kept as given.
    pub(crate) protocol: String,
    /// Workload requests.
    pub(crate) specs: Vec<String>,
    /// Schedule seeds to sweep.
    pub(crate) schedule_seeds: Vec<u64>,
    /// Drop candidates per (workload, schedule seed) cell.
    pub(crate) drop_budget: usize,
    /// Probe budget for the shrinker.
    pub(crate) shrink_runs: usize,
    /// Repro cap per cell.
    pub(crate) max_repros_per_cell: usize,
}

/// Deterministic display label for cells under config document `doc`:
/// the protocol as given, then the fault rate, schedule seed, fault-event
/// count and link channel when present.
fn config_label(doc: &Json) -> String {
    let protocol = doc.get("protocol").and_then(Json::as_str);
    let mut l = protocol.unwrap_or("ftdircmp").to_string();
    let rate = doc.get("fault_rate").and_then(Json::as_f64).unwrap_or(0.0);
    if rate > 0.0 {
        l.push_str(&format!("-{rate:.0}"));
    }
    if let Some(ss) = doc.get("schedule_seed").and_then(Json::as_u64) {
        l.push_str(&format!("-ss{ss}"));
    }
    let events = doc
        .get("fault_events")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if events > 0 {
        l.push_str(&format!("-fd{events}"));
    }
    if doc.get("link_channel").is_some() {
        l.push_str("-ge");
    }
    l
}

impl CampaignSpec {
    /// Expands the grid into campaign units with [`grid`], in its
    /// deterministic order: workload-major, then config, then seed — the
    /// order unit indices in the result store refer to, across every run
    /// and resume.
    ///
    /// # Errors
    ///
    /// Rejects unknown workloads and empty or oversized grids.
    pub(crate) fn units(&self) -> Result<Vec<Unit>, String> {
        if self.specs.is_empty() {
            return Err("campaign has no workloads".to_string());
        }
        if self.configs.is_empty() {
            return Err("campaign has no configurations".to_string());
        }
        if self.seeds == 0 {
            return Err("campaign has zero seeds".to_string());
        }
        if self.seeds > MAX_SEEDS {
            return Err(format!("seeds {} exceeds cap {MAX_SEEDS}", self.seeds));
        }
        let specs: Vec<WorkloadSpec> = self
            .specs
            .iter()
            .map(|r| WorkloadSpec::parse(r))
            .collect::<Result<_, _>>()?;
        let configs: Vec<(String, SystemConfig)> = self
            .configs
            .iter()
            .map(|(doc, config)| (config_label(doc), config.clone()))
            .collect();
        Ok(grid(&specs, &configs, self.seeds))
    }
}

impl FaultSearchSpec {
    /// Validates the request and resolves its workload specs.
    ///
    /// # Errors
    ///
    /// Rejects unknown workloads/protocols and empty sweeps.
    pub(crate) fn resolve(&self) -> Result<(ProtocolVariant, Vec<WorkloadSpec>), String> {
        let protocol = self.protocol.parse()?;
        if self.specs.is_empty() {
            return Err("fault-search has no workloads".to_string());
        }
        if self.schedule_seeds.is_empty() {
            return Err("fault-search has no schedule seeds".to_string());
        }
        let specs = self
            .specs
            .iter()
            .map(|r| WorkloadSpec::parse(r))
            .collect::<Result<_, _>>()?;
        Ok((protocol, specs))
    }
}

/// The keys every job kind takes.
const COMMON_KEYS: [&str; 3] = ["kind", "label", "priority"];

impl JobSpec {
    /// Parses and validates a submission.
    ///
    /// # Errors
    ///
    /// Returns a client-facing description of the first problem found.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind_name = v.req::<&str>("job", "kind")?;
        let keys: &[&str] = match kind_name {
            "campaign" => &["specs", "configs", "seeds", "warmup_checkpoint"],
            "fault-search" => &[
                "protocol",
                "specs",
                "schedule_seeds",
                "drop_budget",
                "shrink_runs",
                "max_repros_per_cell",
            ],
            "replay" => &["repro"],
            "poison" => &[],
            other => {
                return Err(format!(
                    "unknown job kind {other:?} (expected campaign, fault-search, replay)"
                ))
            }
        };
        v.only_keys("job", &[&COMMON_KEYS[..], keys].concat())?;
        let label = v.opt::<&str>("label")?.unwrap_or(kind_name).to_string();
        let priority = match v.opt::<f64>("priority")? {
            None => 0,
            Some(p) if p.fract() == 0.0 && p.abs() <= 1e9 => p as i64,
            Some(_) => return Err("field \"priority\": expected a small integer".to_string()),
        };
        let kind = match kind_name {
            "campaign" => {
                let configs = v
                    .req::<&[Json]>("job", "configs")?
                    .iter()
                    .map(|doc| Ok((doc.clone(), SystemConfig::from_json(doc)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                let warmup = match v.get("warmup_checkpoint") {
                    Some(Json::Null) => None,
                    _ => v.opt::<f64>("warmup_checkpoint")?,
                };
                if warmup.is_some_and(|p| !(0.0..=100.0).contains(&p)) {
                    return Err("field \"warmup_checkpoint\": expected 0..=100".to_string());
                }
                let spec = CampaignSpec {
                    specs: v.req("job", "specs")?,
                    configs,
                    seeds: v.opt("seeds")?.unwrap_or(1),
                    warmup_checkpoint: warmup,
                };
                spec.units()?; // validate the whole grid up front
                JobKind::Campaign(spec)
            }
            "fault-search" => {
                let count = |key: &str, default: u64| -> Result<usize, String> {
                    Ok(v.opt(key)?.unwrap_or(default) as usize)
                };
                let spec = FaultSearchSpec {
                    protocol: v.opt::<&str>("protocol")?.unwrap_or("ftdircmp").to_string(),
                    specs: v.req("job", "specs")?,
                    schedule_seeds: v.opt("schedule_seeds")?.unwrap_or_else(|| vec![0]),
                    drop_budget: count("drop_budget", 8)?,
                    shrink_runs: count("shrink_runs", 100)?,
                    max_repros_per_cell: count("max_repros_per_cell", 1)?,
                };
                spec.resolve()?;
                JobKind::FaultSearch(spec)
            }
            "replay" => JobKind::Replay {
                repro: Box::new(Repro::from_json(
                    v.get("repro")
                        .ok_or("replay job missing object field \"repro\"")?,
                )?),
            },
            _ => JobKind::Poison, // the key match above refused other kinds
        };
        Ok(JobSpec {
            label,
            priority,
            kind,
        })
    }

    /// Canonical JSON for the journal (round-trips through
    /// [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("kind", Json::str(self.kind.name())),
            ("label", Json::str(&self.label)),
            ("priority", Json::Num(self.priority as f64)),
        ];
        match &self.kind {
            JobKind::Campaign(c) => {
                pairs.push(("specs", Json::Arr(c.specs.iter().map(Json::str).collect())));
                let docs = c.configs.iter().map(|(doc, _)| doc.clone()).collect();
                pairs.push(("configs", Json::Arr(docs)));
                pairs.push(("seeds", Json::num_u64(c.seeds)));
                if let Some(w) = c.warmup_checkpoint {
                    pairs.push(("warmup_checkpoint", Json::Num(w)));
                }
            }
            JobKind::FaultSearch(f) => {
                pairs.push(("protocol", Json::str(&f.protocol)));
                pairs.push(("specs", Json::Arr(f.specs.iter().map(Json::str).collect())));
                pairs.push((
                    "schedule_seeds",
                    Json::Arr(f.schedule_seeds.iter().map(|&s| Json::num_u64(s)).collect()),
                ));
                pairs.push(("drop_budget", Json::num_u64(f.drop_budget as u64)));
                pairs.push(("shrink_runs", Json::num_u64(f.shrink_runs as u64)));
                pairs.push((
                    "max_repros_per_cell",
                    Json::num_u64(f.max_repros_per_cell as u64),
                ));
            }
            JobKind::Replay { repro } => pairs.push(("repro", repro.to_json())),
            JobKind::Poison => {}
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign_json() -> Json {
        Json::parse(
            r#"{"kind":"campaign","label":"tiny","priority":3,
                "specs":["barnes:ops=40"],
                "configs":[{"protocol":"dircmp"},
                           {"protocol":"ftdircmp","fault_rate":125,"watchdog_cycles":3000000}],
                "seeds":2}"#,
        )
        .unwrap()
    }

    #[test]
    fn campaign_roundtrips_and_expands_deterministically() {
        let job = JobSpec::from_json(&tiny_campaign_json()).unwrap();
        assert_eq!(job.priority, 3);
        let JobKind::Campaign(c) = &job.kind else {
            panic!("expected campaign")
        };
        let units = c.units().unwrap();
        assert_eq!(units.len(), 4);
        assert_eq!(units[0].label, "barnes/dircmp");
        assert_eq!(units[0].seed, 0);
        assert_eq!(units[1].seed, 1);
        assert_eq!(units[2].label, "barnes/ftdircmp-125");
        assert_eq!(units[2].config.watchdog_cycles, 3_000_000);
        assert_eq!(units[0].spec.ops_per_core, 40);

        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn campaign_units_keep_their_order_and_labels() {
        // Unit indices in the result store name these positions, so a
        // resumed job depends on this exact order.
        let job = JobSpec::from_json(
            &Json::parse(
                r#"{"kind":"campaign","specs":["barnes:ops=40","fft:ops=50"],
                    "configs":[{"protocol":"dircmp"},{"protocol":"ftdircmp","fault_rate":125}],
                    "seeds":2}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let JobKind::Campaign(c) = &job.kind else {
            panic!("expected campaign")
        };
        let got: Vec<String> = (c.units().unwrap().iter())
            .map(|u| {
                let faulty = u.config.mesh.faults.is_faulty();
                format!("{} {} {} {faulty}", u.label, u.seed, u.spec.ops_per_core)
            })
            .collect();
        let want = [
            "barnes/dircmp 0 40 false",
            "barnes/dircmp 1 40 false",
            "barnes/ftdircmp-125 0 40 true",
            "barnes/ftdircmp-125 1 40 true",
            "fft/dircmp 0 50 false",
            "fft/dircmp 1 50 false",
            "fft/ftdircmp-125 0 50 true",
            "fft/ftdircmp-125 1 50 true",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn submissions_are_validated_up_front() {
        for (patch, needle) in [
            (
                r#"{"kind":"campaign","specs":[],"configs":[{"protocol":"dircmp"}]}"#,
                "no workloads",
            ),
            (
                r#"{"kind":"campaign","specs":["nope"],"configs":[{"protocol":"dircmp"}]}"#,
                "unknown benchmark",
            ),
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"zesty"}]}"#,
                "unknown protocol",
            ),
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"dircmp"}],"seeds":0}"#,
                "zero seeds",
            ),
            (r#"{"kind":"sideways"}"#, "unknown job kind"),
            (r#"{"specs":[]}"#, "missing string field"),
            (r#"{"kind":"replay"}"#, "missing object field \"repro\""),
            (
                r#"{"kind":"replay","repro":"( seed: 1 )"}"#,
                "a repro must be a JSON object",
            ),
            // A wrong-typed optional field is an error, not its default.
            (
                r#"{"kind":"poison","label":5}"#,
                "field \"label\": expected string",
            ),
            (
                r#"{"kind":"fault-search","specs":["fft"],"protocol":5}"#,
                "field \"protocol\": expected string",
            ),
            (
                r#"{"kind":"fault-search","specs":["fft"],"schedule_seeds":5}"#,
                "field \"schedule_seeds\": expected integers",
            ),
            (
                r#"{"kind":"fault-search","specs":["fft"],"schedule_seeds":["x"]}"#,
                "expected integers",
            ),
            // A bad rate is refused, not clamped or run fault-free.
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"ftdircmp","fault_rate":-5}]}"#,
                "loss_per_million = -5",
            ),
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"ftdircmp","fault_rate":2000000}]}"#,
                "loss_per_million = 2000000",
            ),
            // Unknown keys are refused, at the top level and in a config.
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"dircmp"}],"seedz":4}"#,
                "unknown job key \"seedz\"",
            ),
            (
                r#"{"kind":"poison","specs":["fft"]}"#,
                "unknown job key \"specs\"",
            ),
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"ftdircmp","fualt_rate":2000}]}"#,
                "unknown config key \"fualt_rate\"",
            ),
            (
                r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"ftdircmp","mesh":"9x8"}]}"#,
                "at most 64 tiles",
            ),
        ] {
            let e = JobSpec::from_json(&Json::parse(patch).unwrap()).unwrap_err();
            assert!(e.contains(needle), "{patch}: {e}");
        }
    }

    #[test]
    fn fault_search_roundtrips() {
        let v = Json::parse(
            r#"{"kind":"fault-search","label":"fs","specs":["water-nsq:ops=50"],
                "schedule_seeds":[0,1],"drop_budget":4,"shrink_runs":50}"#,
        )
        .unwrap();
        let job = JobSpec::from_json(&v).unwrap();
        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn fault_domain_configs_roundtrip_and_validate() {
        let v = Json::parse(
            r#"{"kind":"campaign","label":"fd","specs":["fft:ops=30"],
                "configs":[{"protocol":"ftdircmp",
                            "fault_events":[
                              {"kind":"link-flap","router":5,"dir":"east","start":1000,"end":2000},
                              {"kind":"brownout","router":0,"start":10,"end":20},
                              {"kind":"region-burst","epicenter":5,"radius":1,"start":30,"end":40}],
                            "link_channel":{"drop_bad":0.5},
                            "domain_seed":7}],
                "seeds":1}"#,
        )
        .unwrap();
        let job = JobSpec::from_json(&v).unwrap();
        let JobKind::Campaign(c) = &job.kind else {
            panic!("expected campaign")
        };
        assert_eq!(config_label(&c.configs[0].0), "ftdircmp-fd3-ge");
        let cfg = &c.configs[0].1;
        let domains = cfg.mesh.faults.domains.as_ref().expect("domains installed");
        assert_eq!(domains.domain_seed, 7);
        assert_eq!(domains.events.len(), 3);
        assert_eq!(
            domains.channel.as_ref().map(|ch| ch.drop_bad),
            Some(0.5),
            "partial link_channel objects default the missing fields"
        );

        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job, "canonical JSON must round-trip");
    }

    #[test]
    fn bad_fault_events_are_client_errors() {
        for (events, needle) in [
            (
                r#"[{"kind":"link-flap","router":5,"dir":"up","start":0,"end":1}]"#,
                "unknown direction",
            ),
            (
                r#"[{"kind":"meteor","router":5,"start":0,"end":1}]"#,
                "unknown fault event kind",
            ),
            (
                r#"[{"kind":"brownout","router":99,"start":0,"end":1}]"#,
                "outside",
            ),
            (
                r#"[{"kind":"brownout","router":1,"start":5,"end":5}]"#,
                "empty window",
            ),
            (
                r#"[{"kind":"link-flap","router":5,"start":0,"end":1}]"#,
                "\"dir\"",
            ),
            // r3-east points off the 4x4 mesh: the flap could never fire.
            (
                r#"[{"kind":"link-flap","router":3,"dir":"east","start":0,"end":1}]"#,
                "off the mesh edge",
            ),
        ] {
            let json = format!(
                r#"{{"kind":"campaign","specs":["fft"],
                     "configs":[{{"protocol":"ftdircmp","fault_events":{events}}}]}}"#
            );
            let e = JobSpec::from_json(&Json::parse(&json).unwrap()).unwrap_err();
            assert!(e.contains(needle), "{events}: {e}");
        }
    }

    /// A replay job journaled before repros carried the whole config (its
    /// repro has eleven keys) still validates, so boot keeps it.
    #[test]
    fn an_eleven_key_replay_submission_still_validates() {
        let trace = Json::str("# ftdircmp trace v1\nworkload one\ncore 0\nL 40\n");
        let job = Json::parse(&format!(
            r#"{{"kind":"replay","label":"old","priority":0,"repro":{{"protocol":"dircmp",
                "seed":1003,"schedule_seed":0,"watchdog_cycles":20000,
                "lost_request_timeout":3000,"lost_unblock_timeout":3000,
                "lost_ackbd_timeout":2000,"lost_data_timeout":8000,
                "drops":[40],"failure":"deadlock","trace":{trace}}}}}"#
        ))
        .unwrap();
        let spec = JobSpec::from_json(&job).unwrap();
        let JobKind::Replay { repro } = &spec.kind else {
            panic!("expected replay")
        };
        assert_eq!(repro.config.protocol, ProtocolVariant::DirCmp);
        assert_eq!(
            (repro.config.watchdog_cycles, repro.drops()),
            (20_000, &[40][..])
        );
        assert_eq!(JobSpec::from_json(&spec.to_json()), Ok(spec));
    }

    #[test]
    fn seeds_cap_is_enforced() {
        let v = Json::parse(
            r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"dircmp"}],"seeds":65}"#,
        )
        .unwrap();
        assert!(JobSpec::from_json(&v).unwrap_err().contains("cap"));
    }
}
