//! ASCII tables and CSV output for the experiments.

use std::io::Write as _;
use std::path::Path;

/// A simple right-aligned ASCII table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let hline: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:>w$} ", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&hline);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `path`.
    pub fn to_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut rows = vec![self.headers.clone()];
        rows.extend(self.rows.iter().cloned());
        write_csv(path, &rows)
    }
}

/// Writes rows as CSV (quoting cells containing commas/quotes).
pub fn write_csv(path: impl AsRef<Path>, rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') || c.contains('\n') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        writeln!(f, "{}", line.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut t = Table::new("Demo", &["n", "rounds"]);
        t.row(&["64".into(), "12.0 ± 1.0".into()]);
        t.row(&["128".into(), "14.5 ± 0.8".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("rounds"));
        assert!(s.contains("14.5 ± 0.8"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(&["only one".into()]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("ssr_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "with,comma".into()]);
        t.to_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.contains("\"with,comma\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quotes_escaped() {
        let dir = std::env::temp_dir().join("ssr_table_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.csv");
        write_csv(&path, &[vec!["say \"hi\"".to_string()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"say \"\"hi\"\"\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn row_display_helper() {
        let mut t = Table::new("t", &["x", "y"]);
        t.row_display(&[&1u32, &2.5f64]);
        assert!(t.render().contains("2.5"));
    }
}
