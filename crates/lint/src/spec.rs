//! Lint 2 — spec drift.
//!
//! PROTOCOL.md §5 embeds the transition tables as SLICC-style markdown
//! tables between HTML-comment markers:
//!
//! ```text
//! <!-- ftdircmp-lint:rows L1 -->
//! | Src | Event | Guard | Gate | Next | Sends | ... |
//! ...
//! <!-- ftdircmp-lint:end -->
//! ```
//!
//! `render_*` produce those sections from the compiled-in tables,
//! [`drift`] parses the sections back out of PROTOCOL.md and diffs them
//! structurally against the tables, and [`update_spec`] rewrites the
//! sections in place (the `write-spec` subcommand).

use ftdircmp_core::transitions::{table, Controller, ControllerTable, ExceptionKind};

use crate::Finding;

/// The three per-controller section kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    States,
    Rows,
    Exceptions,
}

impl Section {
    pub const ALL: [Section; 3] = [Section::States, Section::Rows, Section::Exceptions];

    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Section::States => "states",
            Section::Rows => "rows",
            Section::Exceptions => "exceptions",
        }
    }
}

fn marker(section: Section, c: Controller) -> String {
    format!("<!-- ftdircmp-lint:{} {} -->", section.tag(), c.name())
}

const END_MARKER: &str = "<!-- ftdircmp-lint:end -->";

fn dashes(n: usize) -> String {
    let mut s = String::from("|");
    for _ in 0..n {
        s.push_str("---|");
    }
    s
}

fn fmt_list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    if items.is_empty() {
        "—".to_owned()
    } else {
        items.iter().map(f).collect::<Vec<_>>().join(", ")
    }
}

/// Header + body cells for one section of one controller table.
#[must_use]
pub fn section_cells(t: &ControllerTable, section: Section) -> (Vec<String>, Vec<Vec<String>>) {
    match section {
        Section::States => {
            let header = ["State", "Family", "Implies", "FT implies", "Description"]
                .map(String::from)
                .to_vec();
            let body = t
                .states
                .iter()
                .map(|s| {
                    vec![
                        if s.ft_only {
                            format!("`{}` **[FT]**", s.name)
                        } else {
                            format!("`{}`", s.name)
                        },
                        s.family.to_owned(),
                        fmt_list(&s.implies, |r| r.name().to_owned()),
                        fmt_list(&s.ft_implies, |r| r.name().to_owned()),
                        s.desc.to_owned(),
                    ]
                })
                .collect();
            (header, body)
        }
        Section::Rows => {
            let header = [
                "Src", "Event", "Guard", "Gate", "Next", "Sends", "Alloc", "Free", "FT alloc",
                "FT free", "Ref",
            ]
            .map(String::from)
            .to_vec();
            let body = t
                .rows
                .iter()
                .map(|r| {
                    vec![
                        format!("`{}`", r.src),
                        r.event.to_string(),
                        if r.guard.is_empty() {
                            "—".to_owned()
                        } else {
                            r.guard.to_owned()
                        },
                        r.gate.name().to_owned(),
                        if r.next.is_empty() {
                            "∅".to_owned()
                        } else {
                            r.next
                                .iter()
                                .map(|n| format!("`{n}`"))
                                .collect::<Vec<_>>()
                                .join(" ")
                        },
                        fmt_list(&r.sends, |(mt, role)| {
                            format!("{}→{}", mt.name(), role.name())
                        }),
                        fmt_list(&r.alloc, |x| x.name().to_owned()),
                        fmt_list(&r.free, |x| x.name().to_owned()),
                        fmt_list(&r.ft_alloc, |x| x.name().to_owned()),
                        fmt_list(&r.ft_free, |x| x.name().to_owned()),
                        if r.paper.is_empty() {
                            "—".to_owned()
                        } else {
                            r.paper.to_owned()
                        },
                    ]
                })
                .collect();
            (header, body)
        }
        Section::Exceptions => {
            let header = ["State", "Event", "Kind", "Reason"]
                .map(String::from)
                .to_vec();
            let body = t
                .exceptions
                .iter()
                .map(|e| {
                    vec![
                        format!("`{}`", e.state),
                        e.event.to_string(),
                        match e.kind {
                            ExceptionKind::Impossible => "impossible".to_owned(),
                            ExceptionKind::Ignore => "ignore".to_owned(),
                            ExceptionKind::Defer => "defer".to_owned(),
                        },
                        e.reason.to_owned(),
                    ]
                })
                .collect();
            (header, body)
        }
    }
}

/// Renders one marked section (markers included).
#[must_use]
pub fn render_section(t: &ControllerTable, section: Section) -> String {
    let (header, body) = section_cells(t, section);
    let mut out = String::new();
    out.push_str(&marker(section, t.controller));
    out.push('\n');
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&dashes(header.len()));
    out.push('\n');
    for row in &body {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out.push_str(END_MARKER);
    out.push('\n');
    out
}

/// Extracts the body lines of a marked section from `text`, or `None` if
/// the markers are absent.
#[must_use]
pub fn extract_section(text: &str, section: Section, c: Controller) -> Option<Vec<String>> {
    let open = marker(section, c);
    let mut lines = text.lines();
    lines.by_ref().find(|l| l.trim() == open)?;
    let mut body = Vec::new();
    for line in lines {
        if line.trim() == END_MARKER {
            return Some(body);
        }
        body.push(line.to_owned());
    }
    None // unterminated section
}

/// Parses markdown table lines into cell rows, skipping the header and the
/// `|---|` separator.
#[must_use]
pub fn parse_cells(lines: &[String]) -> Vec<Vec<String>> {
    lines
        .iter()
        .map(|l| l.trim())
        .filter(|l| l.starts_with('|'))
        .filter(|l| !l.trim_matches(|c| c == '|' || c == '-').is_empty())
        .skip(1) // header
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_owned())
                .collect()
        })
        .collect()
}

/// Short identity of a parsed/expected row for diff messages.
fn row_key(section: Section, cells: &[String]) -> String {
    let take = match section {
        Section::States => 1,
        Section::Rows => 3, // src, event, guard
        Section::Exceptions => 2,
    };
    cells
        .iter()
        .take(take)
        .cloned()
        .collect::<Vec<_>>()
        .join(" @ ")
}

/// Diffs one section of PROTOCOL.md against the compiled-in table.
fn drift_section(text: &str, t: &ControllerTable, section: Section) -> Vec<Finding> {
    let c = t.controller;
    let Some(body) = extract_section(text, section, c) else {
        return vec![Finding::error(
            "spec-drift",
            Some(c),
            format!(
                "PROTOCOL.md has no `{}` section (run `ftdircmp-lint write-spec`)",
                marker(section, c)
            ),
        )];
    };
    let found = parse_cells(&body);
    let (_, expected) = section_cells(t, section);
    let mut findings = Vec::new();
    let mut fi = found.iter();
    for exp in &expected {
        match fi.next() {
            None => findings.push(Finding::error(
                "spec-drift",
                Some(c),
                format!(
                    "{} section: missing entry `{}`",
                    section.tag(),
                    row_key(section, exp)
                ),
            )),
            Some(got) if got != exp => findings.push(Finding::error(
                "spec-drift",
                Some(c),
                format!(
                    "{} section: `{}` differs\n    spec:  | {} |\n    code:  | {} |",
                    section.tag(),
                    row_key(section, exp),
                    got.join(" | "),
                    exp.join(" | ")
                ),
            )),
            Some(_) => {}
        }
    }
    for extra in fi {
        findings.push(Finding::error(
            "spec-drift",
            Some(c),
            format!(
                "{} section: spec has entry `{}` not present in the code tables",
                section.tag(),
                row_key(section, extra)
            ),
        ));
    }
    findings
}

/// Lint 2 entry point: diffs every marked section of PROTOCOL.md against
/// the compiled-in tables.
#[must_use]
pub fn drift(protocol_text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in Controller::ALL {
        let t = table(c);
        for section in Section::ALL {
            findings.extend(drift_section(protocol_text, t, section));
        }
    }
    findings
}

/// Rewrites (or appends) the marked sections in a PROTOCOL.md text and
/// returns the updated document (the `write-spec` subcommand).
#[must_use]
pub fn update_spec(text: &str) -> String {
    let mut out = text.to_owned();
    let mut missing: Vec<(Controller, Section)> = Vec::new();
    for c in Controller::ALL {
        let t = table(c);
        for section in Section::ALL {
            let open = marker(section, c);
            let rendered = render_section(t, section);
            if let Some(start) = out.find(&open) {
                if let Some(end_rel) = out[start..].find(END_MARKER) {
                    let end = start + end_rel + END_MARKER.len();
                    // Preserve text around the section; rendered has no
                    // trailing newline beyond the marker line.
                    let rendered = rendered.trim_end_matches('\n');
                    out.replace_range(start..end, rendered);
                    continue;
                }
            }
            missing.push((c, section));
        }
    }
    if !missing.is_empty() {
        if !out.ends_with('\n') {
            out.push('\n');
        }
        if !out.contains("## 5. Machine-readable transition tables") {
            out.push_str("\n## 5. Machine-readable transition tables\n\n");
            out.push_str(
                "Generated by `cargo run -p ftdircmp-lint -- write-spec`; checked by \
                 `ftdircmp-lint check` (lint 2).  Do not edit the marked tables by \
                 hand — edit `crates/core/src/transitions/` and regenerate.\n",
            );
        }
        let mut last_ctl = None;
        for (c, section) in missing {
            let t = table(c);
            if last_ctl != Some(c) {
                out.push_str(&format!("\n### {} controller\n\n", c.name()));
                out.push_str(&format!(
                    "{} facet families: {}.  The first family is mandatory \
                     (default `{}`); the others are optional.\n\n",
                    t.families.len(),
                    t.families.join(", "),
                    t.default_state().name
                ));
                last_ctl = Some(c);
            }
            out.push_str(&render_section(t, section));
            out.push('\n');
        }
    }
    out
}
