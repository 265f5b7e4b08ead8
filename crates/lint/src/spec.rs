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
//! [`drift`] compares each section's text in PROTOCOL.md with the rendered
//! text line by line, and [`update_spec`] rewrites the sections in place
//! (the `write-spec` subcommand).

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

fn fmt_list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    if items.is_empty() {
        "—".to_owned()
    } else {
        items.iter().map(f).collect::<Vec<_>>().join(", ")
    }
}

/// Header + body cells for one section of one controller table.
fn section_cells(t: &ControllerTable, section: Section) -> (Vec<String>, Vec<Vec<String>>) {
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

/// The table lines of one section, markers excluded.
fn table_lines(t: &ControllerTable, section: Section) -> Vec<String> {
    let (header, body) = section_cells(t, section);
    let mut lines = vec![
        format!("| {} |", header.join(" | ")),
        format!("|{}", "---|".repeat(header.len())),
    ];
    lines.extend(body.iter().map(|row| format!("| {} |", row.join(" | "))));
    lines
}

/// Renders one marked section (markers included).
#[must_use]
pub fn render_section(t: &ControllerTable, section: Section) -> String {
    let mut out = marker(section, t.controller);
    out.push('\n');
    for line in table_lines(t, section) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(END_MARKER);
    out.push('\n');
    out
}

/// Extracts the lines of a marked section from `text`, or `None` if the
/// markers are absent.
fn extract_section(text: &str, section: Section, c: Controller) -> Option<Vec<&str>> {
    let open = marker(section, c);
    let mut lines = text.lines();
    lines.by_ref().find(|l| l.trim() == open)?;
    let mut body = Vec::new();
    for line in lines {
        if line.trim() == END_MARKER {
            return Some(body);
        }
        body.push(line);
    }
    None // unterminated section
}

/// Compares one section of PROTOCOL.md with the text the table renders and
/// names the first line that differs.
fn drift_section(text: &str, t: &ControllerTable, section: Section) -> Option<Finding> {
    let c = t.controller;
    let Some(spec) = extract_section(text, section, c) else {
        return Some(Finding::error(
            "spec-drift",
            Some(c),
            format!(
                "PROTOCOL.md has no `{}` section (run `ftdircmp-lint write-spec`)",
                marker(section, c)
            ),
        ));
    };
    let code = table_lines(t, section);
    let line = |i: usize| (spec.get(i).copied(), code.get(i).map(String::as_str));
    let i = (0..spec.len().max(code.len())).find(|&i| {
        let (spec_line, code_line) = line(i);
        spec_line != code_line
    })?;
    let (spec_line, code_line) = line(i);
    let end = "(end of section)";
    Some(Finding::error(
        "spec-drift",
        Some(c),
        format!(
            "{} section differs at line {} (run `ftdircmp-lint write-spec`)\n    \
             spec:  {}\n    code:  {}",
            section.tag(),
            i + 1,
            spec_line.unwrap_or(end),
            code_line.unwrap_or(end)
        ),
    ))
}

/// Lint 2 entry point: compares every marked section of PROTOCOL.md with
/// the text the compiled-in tables render.
#[must_use]
pub fn drift(protocol_text: &str) -> Vec<Finding> {
    Controller::ALL
        .into_iter()
        .flat_map(|c| Section::ALL.map(|section| (table(c), section)))
        .filter_map(|(t, section)| drift_section(protocol_text, t, section))
        .collect()
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
