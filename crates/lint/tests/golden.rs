//! Golden tests: the compiled-in tables are clean under every lint, and the
//! repo's actual PROTOCOL.md has no drift.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ftdircmp_core::search::{search, Bounds};
use ftdircmp_core::transitions::{table, Controller};
use ftdircmp_lint::{lints, parse_event, spec};

fn protocol_md() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../PROTOCOL.md");
    std::fs::read_to_string(path).expect("PROTOCOL.md readable")
}

#[test]
fn static_lints_clean_on_real_tables() {
    for c in Controller::ALL {
        let t = table(c);
        let mut findings = lints::completeness(t);
        findings.extend(lints::resource_pairing(t));
        findings.extend(lints::ft_gating(t));
        assert!(
            findings.is_empty(),
            "{}: {:?}",
            c.name(),
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}

#[test]
fn protocol_md_has_no_drift() {
    let findings = spec::drift(&protocol_md());
    assert!(
        findings.is_empty(),
        "PROTOCOL.md drifted from the code tables: {:?}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

#[test]
fn update_spec_is_idempotent() {
    let text = protocol_md();
    assert_eq!(spec::update_spec(&text), text);
}

#[test]
fn event_display_round_trips() {
    for c in Controller::ALL {
        for ev in table(c).event_universe() {
            assert_eq!(parse_event(&ev.to_string()), Some(ev), "{ev}");
        }
    }
}

#[test]
fn search_reaches_the_deep_flows() {
    // One op per L1 already drives the victim recall, the memory
    // writeback and the §3.1.1 handshakes with no failure, and leaks no
    // FT-only state into the non-FT run.
    let tables = Controller::ALL.map(table);
    let one_op = Bounds {
        ops: 1,
        drops: 0,
        early: 0,
    };
    let ft = search(tables, true, one_op).expect("the tables' states resolve");
    assert!(ft.failures.is_empty(), "{:?}", ft.failures);
    let l2 = table(Controller::L2);
    let fired_srcs: BTreeSet<&str> = ft
        .fired
        .iter()
        .filter(|(c, _)| *c == Controller::L2)
        .map(|&(_, i)| l2.rows[i].src)
        .collect();
    for src in ["WaitRecall", "WaitMemWbAck", "MB", "EXT"] {
        assert!(fired_srcs.contains(src), "no L2 row fired from {src}");
    }

    let non_ft = search(tables, false, one_op).expect("the tables' states resolve");
    assert!(non_ft.failures.is_empty(), "{:?}", non_ft.failures);
    // A facet enters a state only through a row naming it.
    for &(c, i) in &non_ft.fired {
        let row = &table(c).rows[i];
        for s in std::iter::once(&row.src).chain(&row.next) {
            let state = table(c).state(s).expect("a declared state");
            assert!(!state.ft_only, "{s} reached without fault tolerance");
        }
    }
}
