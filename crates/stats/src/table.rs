//! Plain-text table rendering for the benchmark harness.
//!
//! The bench binaries print the same rows/series the paper's tables and
//! figures report; this module renders them as aligned monospace tables.

/// A simple text table with a header row and aligned columns.
///
/// # Example
///
/// ```
/// use ftdircmp_stats::table::Table;
///
/// let mut t = Table::new(vec!["benchmark".into(), "overhead".into()]);
/// t.row(vec!["fft".into(), "1.02x".into()]);
/// let s = t.render();
/// assert!(s.contains("benchmark"));
/// assert!(s.contains("fft"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Table::new(cols.iter().map(|s| s.to_string()).collect())
    }

    /// Appends a row. Rows shorter than the header are padded with blanks.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table as an aligned monospace string.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        render_row(&mut out, &self.header, &widths);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row, &widths);
        }
        out
    }
}

fn render_row(out: &mut String, row: &[String], widths: &[usize]) {
    for (i, width) in widths.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        let cell = row.get(i).map_or("", String::as_str);
        out.push_str(cell);
        for _ in cell.len()..*width {
            out.push(' ');
        }
    }
    // Trim trailing spaces of the last column.
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
}

/// Formats a fraction as `"+12.3%"` / `"-4.5%"`.
pub fn signed_percent(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Formats a ratio as `"1.23x"`.
pub fn times(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::with_columns(&["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a      | long-header"));
        assert!(lines[2].starts_with("xxxxxx | 1"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::with_columns(&["a", "b", "c"]);
        t.row(vec!["only".into()]);
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn empty_table_has_header_and_rule() {
        let t = Table::with_columns(&["x"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(signed_percent(0.123), "+12.3%");
        assert_eq!(signed_percent(-0.045), "-4.5%");
        assert_eq!(times(1.234), "1.23x");
    }
}
