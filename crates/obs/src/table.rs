//! A minimal fixed-column text table.
//!
//! The workspace's examples all print comparison tables to stdout, and the
//! metrics exporter needs one too; this is the single shared implementation.
//! Column widths are computed from the content, every line is
//! trailing-whitespace-trimmed, and nothing depends on locale or wall
//! clock — the same rows always render to the same bytes.

/// Horizontal alignment of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// A table under construction: a header row plus data rows.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given `(header, alignment)` columns.
    pub fn new(columns: &[(&str, Align)]) -> TextTable {
        TextTable {
            headers: columns.iter().map(|(h, _)| h.to_string()).collect(),
            aligns: columns.iter().map(|&(_, a)| a).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one data row. Missing cells render empty; extra cells are
    /// truncated to the column count.
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.truncate(self.headers.len());
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Render header and rows, columns separated by two spaces, each line
    /// newline-terminated with trailing whitespace removed.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        self.render_line(&mut out, &self.headers, &widths);
        for row in &self.rows {
            self.render_line(&mut out, row, &widths);
        }
        out
    }

    /// Print the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    fn render_line(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = widths[i].saturating_sub(cell.chars().count());
            match self.aligns[i] {
                Align::Left => {
                    line.push_str(cell);
                    line.extend(std::iter::repeat_n(' ', pad));
                }
                Align::Right => {
                    line.extend(std::iter::repeat_n(' ', pad));
                    line.push_str(cell);
                }
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_and_pads() {
        let mut t = TextTable::new(&[("name", Align::Left), ("value", Align::Right)]);
        t.row(["a", "1"]);
        t.row(["longer-name", "123456"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name          value");
        assert_eq!(lines[1], "a                 1");
        assert_eq!(lines[2], "longer-name  123456");
        // No trailing whitespace anywhere.
        for l in &lines {
            assert_eq!(*l, l.trim_end());
        }
    }

    #[test]
    fn ragged_rows_are_squared_off() {
        let mut t = TextTable::new(&[("a", Align::Left), ("b", Align::Right)]);
        t.row(["only"]);
        t.row(["x", "y", "dropped"]);
        let text = t.render();
        assert!(text.contains("only"));
        assert!(!text.contains("dropped"));
    }
}
