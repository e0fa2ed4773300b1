//! Aligned text table rendering for experiment output.

/// A simple column-aligned text table.
///
/// ```
/// use rda_metrics::TextTable;
/// let mut t = TextTable::new(vec!["name".into(), "value".into()]);
/// t.add_row(vec!["alpha".into(), "1".into()]);
/// let s = t.render();
/// assert!(s.contains("alpha"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given header cells.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Append one row. Rows shorter than the header are padded with
    /// empty cells; longer rows extend the column count.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with space-aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let mut out = String::new();
        let render_row = |out: &mut String, row: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<w$}"));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data starts of column 2 align.
        let col2 = |line: &str| {
            line.find("bbbb")
                .or_else(|| line.find('1'))
                .or_else(|| line.find("22"))
        };
        let positions: Vec<usize> = [lines[0], lines[2], lines[3]]
            .iter()
            .filter_map(|l| col2(l))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new(vec!["h1".into()]);
        t.add_row(vec!["a".into(), "extra".into()]);
        t.add_row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_is_header_only() {
        let t = TextTable::new(vec!["only".into()]);
        assert!(t.is_empty());
        let s = t.render();
        assert!(s.starts_with("only\n"));
    }
}
