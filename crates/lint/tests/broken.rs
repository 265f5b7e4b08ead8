//! Each lint must actually fire: these tests mutate the real tables into
//! deliberately broken fixtures and assert the corresponding lint reports
//! them.

use ftdircmp_core::msg::MsgType;
use ftdircmp_core::search::{search, Bounds};
use ftdircmp_core::transitions::{
    impossible, msg, table, Controller, ControllerTable, Event, Gate, Transition,
};
use ftdircmp_lint::{lints, spec};

fn rebuild(
    c: Controller,
    f: impl FnOnce(
        &mut Vec<ftdircmp_core::transitions::StateDecl>,
        &mut Vec<Transition>,
        &mut Vec<ftdircmp_core::transitions::Exception>,
    ),
) -> ControllerTable {
    let t = table(c);
    let mut states = t.states.clone();
    let mut rows = t.rows.clone();
    let mut exceptions = t.exceptions.clone();
    f(&mut states, &mut rows, &mut exceptions);
    ControllerTable::new(c, states, rows, exceptions).expect("fixture builds")
}

fn leak(t: ControllerTable) -> &'static ControllerTable {
    Box::leak(Box::new(t))
}

#[test]
fn completeness_flags_an_uncovered_pair() {
    // Drop the wildcard NackO exception: every L1 state without a NackO row
    // becomes an uncovered pair.
    let broken = rebuild(Controller::L1, |_, _, exceptions| {
        exceptions.retain(|e| e.event != msg(MsgType::NackO));
    });
    let findings = lints::completeness(&broken);
    assert!(
        findings.iter().any(|f| f.message.contains("NackO")),
        "{findings:?}"
    );
}

#[test]
fn completeness_flags_a_contradictory_exception() {
    let broken = rebuild(Controller::L1, |_, _, exceptions| {
        exceptions.push(impossible(
            "M",
            msg(MsgType::FwdGetS),
            "contradicts the existing row",
        ));
    });
    let findings = lints::completeness(&broken);
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("both a transition row and an explicit exception")),
        "{findings:?}"
    );
}

#[test]
fn resource_pairing_flags_an_unbalanced_row() {
    // The NP -> WaitMem fill allocates the TBE; removing the alloc leaves
    // the books unbalanced in both modes.
    let broken = rebuild(Controller::L2, |_, rows, _| {
        let row = rows
            .iter_mut()
            .find(|r| r.src == "NP" && r.event == msg(MsgType::GetS))
            .expect("fill row exists");
        row.alloc.clear();
    });
    let findings = lints::resource_pairing(&broken);
    assert!(
        findings.iter().any(|f| f.message.contains("tbe")),
        "{findings:?}"
    );
}

#[test]
fn ft_gating_flags_a_non_ft_row_from_an_ft_state() {
    let broken = rebuild(Controller::L1, |_, rows, _| {
        let row = rows
            .iter_mut()
            .find(|r| r.src == "B" && r.event == msg(MsgType::AckO))
            .expect("backup release row exists");
        row.gate = Gate::NonFtOnly;
    });
    let findings = lints::ft_gating(&broken);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("only exists with FT")),
        "{findings:?}"
    );
}

#[test]
fn ft_gating_flags_an_ungated_row_entering_an_ft_state() {
    let broken = rebuild(Controller::L1, |_, rows, _| {
        rows.push(Transition::new("M", msg(MsgType::FwdGetX), &["B"]));
    });
    let findings = lints::ft_gating(&broken);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("enters FT-only state B")),
        "{findings:?}"
    );
}

#[test]
fn spec_drift_flags_edits_additions_and_deletions() {
    let pristine = spec::update_spec("");
    assert!(spec::drift(&pristine).is_empty());

    // A hand-edited cell.
    let edited = pristine.replace("migratory grant", "migratory graft");
    assert!(
        spec::drift(&edited)
            .iter()
            .any(|f| f.message.contains("differs")),
        "cell edit not detected"
    );

    // A deleted table line.
    let target = pristine
        .lines()
        .find(|l| l.contains("migratory grant"))
        .expect("row rendered");
    let deleted = pristine.replace(&format!("{target}\n"), "");
    assert!(
        spec::drift(&deleted)
            .iter()
            .any(|f| f.message.contains("missing entry")),
        "deletion not detected"
    );

    // An invented extra line.
    let added = pristine.replace(
        &format!("{target}\n"),
        &format!("{target}\n| `MT` | GetS | invented | both | ∅ | — | — | — | — | — | — |\n"),
    );
    assert!(
        spec::drift(&added)
            .iter()
            .any(|f| f.message.contains("not present in the code tables")),
        "addition not detected"
    );
}

/// Without fault tolerance, two ops per L1: enough for a sharer to drop
/// its copy silently and then see the `Inv` of the other L1's upgrade.
const TWO_OPS: Bounds = Bounds {
    ops: 2,
    drops: 0,
    early: 0,
};

#[test]
fn search_reaches_a_wrongly_declared_impossible_pair() {
    // Declare the benign stale-Inv-at-I pair impossible: the search must
    // reach it and report the contradiction.
    let l1 = leak(rebuild(Controller::L1, |_, rows, exceptions| {
        rows.retain(|r| !(r.src == "I" && r.event == msg(MsgType::Inv)));
        exceptions.push(impossible(
            "I",
            msg(MsgType::Inv),
            "broken fixture: this pair is actually reachable",
        ));
    }));
    let tables = [l1, table(Controller::L2), table(Controller::Mem)];
    let report = search(tables, false, TWO_OPS).expect("the fixture's states resolve");
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.what.contains("PROTOCOL: L1-")
                && f.what.contains("unexpected Inv in state I")),
        "{:?}",
        report.failures
    );
}

#[test]
fn search_leaves_an_undrivable_row_unfired() {
    // GetX is only ever addressed to the home bank or memory, never to an
    // L1, so a row consuming it at the L1 can never fire.
    let l1 = leak(rebuild(Controller::L1, |_, rows, _| {
        let mut bogus = Transition::new("S", msg(MsgType::GetX), &["S"]);
        bogus.guard = "broken fixture: dead by construction";
        rows.push(bogus);
    }));
    let dead_idx = l1.rows.len() - 1;
    assert_eq!(l1.rows[dead_idx].event, Event::Msg(MsgType::GetX));
    let tables = [l1, table(Controller::L2), table(Controller::Mem)];
    let report = search(tables, false, TWO_OPS).expect("the fixture's states resolve");
    assert!(
        !report.fired.contains(&(Controller::L1, dead_idx)),
        "bogus row fired"
    );
    // Sanity: plenty of real rows did fire.
    assert!(report.fired.len() > 50, "{} rows fired", report.fired.len());
}

#[test]
fn search_finds_the_recall_answering_its_lost_data_with_acko() {
    // Without its `WaitRecall` rows, an `OwnershipPing` at a recall whose
    // `DataEx` was lost falls through to the line's unconditional `AckO`:
    // the owner drops its backup, the last copy. One op per L1 and one
    // drop reach it.
    let l2 = leak(rebuild(Controller::L2, |_, rows, _| {
        let ping = msg(MsgType::OwnershipPing);
        rows.retain(|r| !(r.src == "WaitRecall" && r.event == ping));
    }));
    let tables = [table(Controller::L1), l2, table(Controller::Mem)];
    let one_drop = Bounds {
        ops: 1,
        drops: 1,
        early: 0,
    };
    let report = search(tables, true, one_drop).expect("the fixture's states resolve");
    let bug = (report.failures.iter())
        .find(|f| f.what.contains("last copy") || f.what.contains("records left"))
        .unwrap_or_else(|| panic!("not found: {:?}", report.failures));
    let step = |what: &str| bug.steps.iter().any(|s| s.starts_with(what));
    assert!(step("drop DataEx L1-"), "{bug:?}");
    assert!(step("deliver OwnershipPing L1-"), "{bug:?}");
}
