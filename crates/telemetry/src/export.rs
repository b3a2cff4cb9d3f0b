//! Benchmark result tables.
//!
//! The benchmark harness writes every regenerated figure/table as a plain
//! CSV file (and a text rendering) so the results stay stable artifacts.

use std::fmt::Write as _;

/// A simple result table (named columns, numeric rows) used by the benchmark
/// harness to emit the paper's tables and figure series.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl ResultTable {
    /// Creates an empty table with the given title and column names.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        ResultTable {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Adds a labelled row.
    ///
    /// # Panics
    /// Panics if the number of values does not match the number of columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// Labelled rows.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Renders the table as CSV (`label,<col>,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(label);
            for v in values {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as an aligned, human-readable text table (used for
    /// terminal output of the benchmark binaries).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = Vec::with_capacity(self.columns.len() + 1);
        widths.push(
            self.rows
                .iter()
                .map(|(l, _)| l.len())
                .chain(std::iter::once("label".len()))
                .max()
                .unwrap_or(5),
        );
        for (i, c) in self.columns.iter().enumerate() {
            let data_width = self
                .rows
                .iter()
                .map(|(_, vals)| format!("{:.3}", vals[i]).len())
                .max()
                .unwrap_or(0);
            widths.push(c.len().max(data_width));
        }

        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:<w$}", "label", w = widths[0]);
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", c, w = widths[i + 1]);
        }
        out.push('\n');
        for (label, values) in &self.rows {
            let _ = write!(out, "{:<w$}", label, w = widths[0]);
            for (i, v) in values.iter().enumerate() {
                let _ = write!(out, "  {:>w$.3}", v, w = widths[i + 1]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_table_csv_and_text_render() {
        let mut t = ResultTable::new(
            "Table 3: synopsis comparison",
            vec!["time_units".to_string(), "accuracy".to_string()],
        );
        t.push_row("AdaBoost 60", vec![1740.0, 0.985]);
        t.push_row("Nearest neighbor", vec![90.0, 0.955]);
        t.push_row("K-means", vec![90.0, 0.87]);
        let csv = t.to_csv();
        assert!(csv.starts_with("label,time_units,accuracy\n"));
        assert!(csv.contains("AdaBoost 60,1740,0.985"));
        let text = t.to_text();
        assert!(text.contains("Table 3"));
        assert!(text.contains("Nearest neighbor"));
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn result_table_rejects_ragged_rows() {
        let mut t = ResultTable::new("t", vec!["a".to_string()]);
        t.push_row("x", vec![1.0, 2.0]);
    }
}
