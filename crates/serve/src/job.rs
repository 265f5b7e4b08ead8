//! Job types the daemon accepts, their wire format, and the deterministic
//! expansion of a campaign submission into simulation units.
//!
//! A submission is one JSON object with a `kind` discriminator:
//!
//! * `campaign` — a (workload × config × seed) grid run through the
//!   parallel checkpoint-fork campaign runner;
//! * `fault-search` — a guided fault-schedule exploration
//!   (`ftdircmp-explore`) whose minimized repros land in the result store;
//! * `replay` — replays a self-contained repro, the same JSON object an
//!   `ftdircmp-explore` repro file holds;
//! * `poison` — a test fixture that panics inside the worker, used by the
//!   quarantine integration tests (harmless: the daemon catches it).
//!
//! [`JobSpec::from_json`] validates everything up front (unknown
//! benchmarks, bad protocols, empty grids) so a malformed submission is a
//! typed client error, never a worker crash.

use ftdircmp_bench::campaign::Unit;
use ftdircmp_core::{ProtocolVariant, SystemConfig};
use ftdircmp_explore::repro::Repro;
use ftdircmp_noc::{
    Direction, FaultDomainConfig, FaultEvent, LinkChannelConfig, RouterId, DEFAULT_DEGRADED_DROP,
};
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
        repro: Repro,
    },
    /// Test fixture: panics in the worker; the daemon must quarantine it.
    Poison,
}

/// A campaign grid: every workload request under every configuration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignSpec {
    /// Workload requests (`"name"` or `"name:ops=N"`, see
    /// [`WorkloadSpec::parse`]).
    pub(crate) specs: Vec<String>,
    /// Configuration axis.
    pub(crate) configs: Vec<ConfigSpec>,
    /// Seeds per cell.
    pub(crate) seeds: u64,
    /// Checkpoint-fork warmup threshold (percent), if requested.
    pub(crate) warmup_checkpoint: Option<f64>,
}

/// One point on a campaign's configuration axis.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConfigSpec {
    /// A [`ProtocolVariant`] name, kept as given: cell labels echo it.
    pub(crate) protocol: String,
    /// Messages lost per million (0 = fault-free).
    pub(crate) fault_rate: f64,
    /// Deadlock watchdog override, cycles.
    pub(crate) watchdog_cycles: Option<u64>,
    /// Event-queue schedule seed override.
    pub(crate) schedule_seed: Option<u64>,
    /// Scheduled correlated-fault events (link flaps, brown-outs, region
    /// bursts). Empty means no fault domains.
    pub(crate) fault_events: Vec<FaultEvent>,
    /// Ambient per-link Gilbert–Elliott channel.
    pub(crate) link_channel: Option<LinkChannelConfig>,
    /// Seed of the per-link decision hash (defaults inside
    /// `FaultDomainConfig` when unset).
    pub(crate) domain_seed: Option<u64>,
}

/// Parses one fault-event object: `{"kind":"link-flap","router":5,
/// "dir":"east","start":1000,"end":2000}`, `{"kind":"brownout","router":5,
/// ...}` or `{"kind":"region-burst","epicenter":5,"radius":1,...}`.
fn parse_fault_event(v: &Json) -> Result<FaultEvent, String> {
    let kind = v.req::<&str>("fault event", "kind")?;
    let num = |key: &str| v.req::<u64>("fault event", key);
    let router = |key: &str| -> Result<RouterId, String> {
        let raw = num(key)?;
        u16::try_from(raw)
            .map(RouterId::new)
            .map_err(|_| format!("fault event field {key:?}: router index {raw} too large"))
    };
    let (start, end) = (num("start")?, num("end")?);
    match kind {
        "link-flap" => {
            let label = v.req::<&str>("link-flap event", "dir")?;
            let dir = Direction::from_label(label).ok_or_else(|| {
                format!("unknown direction {label:?} (expected east, west, south or north)")
            })?;
            Ok(FaultEvent::LinkFlap {
                from: router("router")?,
                dir,
                start,
                end,
            })
        }
        "brownout" => Ok(FaultEvent::RouterBrownout {
            router: router("router")?,
            start,
            end,
        }),
        "region-burst" => Ok(FaultEvent::RegionBurst {
            epicenter: router("epicenter")?,
            radius: u32::try_from(num("radius")?)
                .map_err(|_| "fault event field \"radius\": too large".to_string())?,
            start,
            end,
        }),
        other => Err(format!(
            "unknown fault event kind {other:?} (expected link-flap, brownout, region-burst)"
        )),
    }
}

fn fault_event_json(ev: &FaultEvent) -> Json {
    match *ev {
        FaultEvent::LinkFlap {
            from,
            dir,
            start,
            end,
        } => Json::obj(vec![
            ("kind", Json::str("link-flap")),
            ("router", Json::num_u64(from.index() as u64)),
            ("dir", Json::str(dir.label())),
            ("start", Json::num_u64(start)),
            ("end", Json::num_u64(end)),
        ]),
        FaultEvent::RouterBrownout { router, start, end } => Json::obj(vec![
            ("kind", Json::str("brownout")),
            ("router", Json::num_u64(router.index() as u64)),
            ("start", Json::num_u64(start)),
            ("end", Json::num_u64(end)),
        ]),
        FaultEvent::RegionBurst {
            epicenter,
            radius,
            start,
            end,
        } => Json::obj(vec![
            ("kind", Json::str("region-burst")),
            ("epicenter", Json::num_u64(epicenter.index() as u64)),
            ("radius", Json::num_u64(u64::from(radius))),
            ("start", Json::num_u64(start)),
            ("end", Json::num_u64(end)),
        ]),
    }
}

/// Parses a link-channel object; omitted fields default to the passthrough
/// channel (no ambient noise, [`DEFAULT_DEGRADED_DROP`] inside degraded
/// windows).
fn parse_link_channel(v: &Json) -> Result<LinkChannelConfig, String> {
    Ok(LinkChannelConfig {
        p_enter_bad: v.opt("p_enter_bad")?.unwrap_or(0.0),
        p_exit_bad: v.opt("p_exit_bad")?.unwrap_or(1.0),
        drop_good: v.opt("drop_good")?.unwrap_or(0.0),
        drop_bad: v.opt("drop_bad")?.unwrap_or(DEFAULT_DEGRADED_DROP),
    })
}

fn link_channel_json(ch: &LinkChannelConfig) -> Json {
    Json::obj(vec![
        ("p_enter_bad", Json::Num(ch.p_enter_bad)),
        ("p_exit_bad", Json::Num(ch.p_exit_bad)),
        ("drop_good", Json::Num(ch.drop_good)),
        ("drop_bad", Json::Num(ch.drop_bad)),
    ])
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

impl ConfigSpec {
    /// Builds the effective [`SystemConfig`] and validates it, so that bad
    /// fault input (a negative or oversized rate, bad probabilities, empty
    /// windows, routers or links the mesh does not have) is a client error
    /// at submission time, not a worker crash or a silently fault-free run.
    ///
    /// # Errors
    ///
    /// Rejects unknown protocol names and invalid configurations.
    pub(crate) fn to_config(&self) -> Result<SystemConfig, String> {
        let mut cfg = SystemConfig {
            protocol: self.protocol.parse()?,
            ..SystemConfig::default()
        };
        if self.fault_rate != 0.0 {
            cfg = cfg.with_fault_rate(self.fault_rate);
        }
        if let Some(w) = self.watchdog_cycles {
            cfg.watchdog_cycles = w;
        }
        if let Some(ss) = self.schedule_seed {
            cfg = cfg.with_schedule_seed(ss);
        }
        if !self.fault_events.is_empty() || self.link_channel.is_some() {
            let mut domains = FaultDomainConfig::events(self.fault_events.clone());
            if let Some(ch) = &self.link_channel {
                domains = domains.with_channel(ch.clone());
            }
            if let Some(seed) = self.domain_seed {
                domains = domains.with_seed(seed);
            }
            cfg = cfg.with_fault_domains(domains);
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Deterministic display label for cells under this configuration.
    pub(crate) fn label(&self) -> String {
        let mut l = self.protocol.clone();
        if self.fault_rate > 0.0 {
            l.push_str(&format!("-{:.0}", self.fault_rate));
        }
        if let Some(ss) = self.schedule_seed {
            l.push_str(&format!("-ss{ss}"));
        }
        if !self.fault_events.is_empty() {
            l.push_str(&format!("-fd{}", self.fault_events.len()));
        }
        if self.link_channel.is_some() {
            l.push_str("-ge");
        }
        l
    }
}

impl CampaignSpec {
    /// Expands the grid into campaign units in deterministic order:
    /// workload-major, then config, then seed — the order unit indices in
    /// the result store refer to, across every run and resume.
    ///
    /// # Errors
    ///
    /// Rejects unknown workloads/protocols and empty or oversized grids.
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
        let configs: Vec<SystemConfig> = self
            .configs
            .iter()
            .map(ConfigSpec::to_config)
            .collect::<Result<_, _>>()?;
        let mut units = Vec::with_capacity(specs.len() * configs.len() * self.seeds as usize);
        for spec in &specs {
            for (config, cspec) in configs.iter().zip(&self.configs) {
                for seed in 0..self.seeds {
                    units.push(Unit {
                        label: format!("{}/{}", spec.name, cspec.label()),
                        spec: spec.clone(),
                        config: config.clone(),
                        seed,
                    });
                }
            }
        }
        Ok(units)
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

impl JobSpec {
    /// Parses and validates a submission.
    ///
    /// # Errors
    ///
    /// Returns a client-facing description of the first problem found.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind_name = v.req::<&str>("job", "kind")?;
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
                    .map(|c| {
                        Ok(ConfigSpec {
                            protocol: c.req::<&str>("config", "protocol")?.to_string(),
                            fault_rate: c.opt("fault_rate")?.unwrap_or(0.0),
                            watchdog_cycles: c.opt("watchdog_cycles")?,
                            schedule_seed: c.opt("schedule_seed")?,
                            fault_events: c
                                .opt::<&[Json]>("fault_events")?
                                .unwrap_or_default()
                                .iter()
                                .map(parse_fault_event)
                                .collect::<Result<_, _>>()?,
                            link_channel: c
                                .get("link_channel")
                                .map(parse_link_channel)
                                .transpose()?,
                            domain_seed: c.opt("domain_seed")?,
                        })
                    })
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
                repro: Repro::from_json(
                    v.get("repro")
                        .ok_or("replay job missing object field \"repro\"")?,
                )?,
            },
            "poison" => JobKind::Poison,
            other => {
                return Err(format!(
                    "unknown job kind {other:?} (expected campaign, fault-search, replay)"
                ))
            }
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
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        match &self.kind {
            JobKind::Campaign(c) => {
                pairs.push(("kind", Json::str("campaign")));
                pairs.push(("label", Json::str(&self.label)));
                pairs.push(("priority", Json::Num(self.priority as f64)));
                pairs.push(("specs", Json::Arr(c.specs.iter().map(Json::str).collect())));
                pairs.push((
                    "configs",
                    Json::Arr(
                        c.configs
                            .iter()
                            .map(|cfg| {
                                let mut p = vec![
                                    ("protocol".to_string(), Json::str(&cfg.protocol)),
                                    ("fault_rate".to_string(), Json::Num(cfg.fault_rate)),
                                ];
                                if let Some(w) = cfg.watchdog_cycles {
                                    p.push(("watchdog_cycles".to_string(), Json::num_u64(w)));
                                }
                                if let Some(ss) = cfg.schedule_seed {
                                    p.push(("schedule_seed".to_string(), Json::num_u64(ss)));
                                }
                                if !cfg.fault_events.is_empty() {
                                    p.push((
                                        "fault_events".to_string(),
                                        Json::Arr(
                                            cfg.fault_events.iter().map(fault_event_json).collect(),
                                        ),
                                    ));
                                }
                                if let Some(ch) = &cfg.link_channel {
                                    p.push(("link_channel".to_string(), link_channel_json(ch)));
                                }
                                if let Some(ds) = cfg.domain_seed {
                                    p.push(("domain_seed".to_string(), Json::num_u64(ds)));
                                }
                                Json::Obj(p)
                            })
                            .collect(),
                    ),
                ));
                pairs.push(("seeds", Json::num_u64(c.seeds)));
                if let Some(w) = c.warmup_checkpoint {
                    pairs.push(("warmup_checkpoint", Json::Num(w)));
                }
            }
            JobKind::FaultSearch(f) => {
                pairs.push(("kind", Json::str("fault-search")));
                pairs.push(("label", Json::str(&self.label)));
                pairs.push(("priority", Json::Num(self.priority as f64)));
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
            JobKind::Replay { repro } => {
                pairs.push(("kind", Json::str("replay")));
                pairs.push(("label", Json::str(&self.label)));
                pairs.push(("priority", Json::Num(self.priority as f64)));
                pairs.push(("repro", repro.to_json()));
            }
            JobKind::Poison => {
                pairs.push(("kind", Json::str("poison")));
                pairs.push(("label", Json::str(&self.label)));
                pairs.push(("priority", Json::Num(self.priority as f64)));
            }
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
        assert_eq!(c.configs[0].fault_events.len(), 3);
        assert_eq!(c.configs[0].label(), "ftdircmp-fd3-ge");
        let cfg = c.configs[0].to_config().unwrap();
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

    #[test]
    fn seeds_cap_is_enforced() {
        let v = Json::parse(
            r#"{"kind":"campaign","specs":["fft"],"configs":[{"protocol":"dircmp"}],"seeds":65}"#,
        )
        .unwrap();
        assert!(JobSpec::from_json(&v).unwrap_err().contains("cap"));
    }
}
