//! Aligned plain-text table rendering.
//!
//! Every regenerated table of the paper is printed through [`Table`], so the
//! bench binaries produce consistent, diff-friendly output.

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the header row.
    pub fn header<I, S>(mut self, cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the column count.
    pub fn row<I, S>(&mut self, cols: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Render the table as a string.
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
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let render_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..*w {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&render_row(&self.header));
            out.push('\n');
            let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Table X").header(["Region", "P50", "P99"]);
        t.row(["Region1", "243", "2491"]);
        t.row(["Region3", "566", "50879"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Table X");
        assert!(lines[1].starts_with("Region   P50  P99"));
        assert!(lines[2].starts_with("---"));
        assert!(lines[3].contains("Region1"));
        // Columns align: "P99" and "50879" start at the same offset.
        let hdr_off = lines[1].find("P99").unwrap();
        let row_off = lines[4].find("50879").unwrap();
        assert_eq!(hdr_off, row_off);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("").header(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        assert_eq!(t.render(), "a  b\n-------\n1\n1  2  3\n");
    }

    #[test]
    fn empty_table_renders_title_only() {
        let t = Table::new("just a title");
        assert_eq!(t.render(), "just a title\n");
    }
}
