//! Plain-text table rendering for the figure generators.
//!
//! Each figure in `drum-lab` prints the series a paper figure plots;
//! [`Table`] keeps that output aligned and machine-greppable.

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use drum_metrics::table::Table;
///
/// let mut t = Table::new(vec!["x".into(), "drum".into(), "push".into()]);
/// t.row(vec!["0".into(), "4.9".into(), "5.0".into()]);
/// let out = t.render();
/// assert!(out.contains("drum"));
/// assert!(out.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header underline.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(core::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all_rows = core::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            #[allow(clippy::needless_range_loop)] // i indexes two parallel slices
            for i in 0..ncols {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        assert!(t.is_empty());
        t.row(vec!["100".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a'));
        assert!(lines[2].contains("100"));
    }

    #[test]
    fn ragged_rows_ok() {
        let mut t = Table::new(vec!["h".into()]);
        t.row(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec![]);
        let out = t.render();
        assert!(out.contains('c'));
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new(vec!["x".into()]);
        assert_eq!(format!("{t}"), t.render());
    }
}
