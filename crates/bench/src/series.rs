//! Figure data model and CSV/markdown rendering.

use std::fmt::Write as _;
use std::path::Path;

/// One line of a figure: a labelled sequence of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"CuART"`, `"GRT-OpenCL"`).
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Maximum y value (0 for an empty series).
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(0.0, f64::max)
    }
}

/// A complete regenerated figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `"fig10"`.
    pub id: String,
    /// Human title copied from the paper caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label (usually MOps/s).
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: header `x,<label>...`, one row per x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            write!(out, ",{}", s.label.replace(',', ";")).expect("string write");
        }
        out.push('\n');
        for x in xs {
            write!(out, "{x}").expect("string write");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => write!(out, ",{y:.4}").expect("string write"),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        write!(out, "| {} |", self.x_label).expect("string write");
        for s in &self.series {
            write!(out, " {} |", s.label).expect("string write");
        }
        out.push('\n');
        write!(out, "|---|").expect("string write");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            write!(out, "| {x} |").expect("string write");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => write!(out, " {y:.2} |").expect("string write"),
                    None => out.push_str("  |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Write `<id>.csv` into `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// Split a `SUMMARY.md` into `(figure id, section text)` pairs. A section
/// is a `### <id> — <title>` heading (what [`Figure::to_markdown`] emits)
/// and everything up to the next one; text before the first heading keeps
/// an empty id.
fn summary_sections(text: &str) -> Vec<(&str, &str)> {
    let mut starts: Vec<usize> = text
        .match_indices("### ")
        .map(|(at, _)| at)
        .filter(|&at| at == 0 || text[..at].ends_with('\n'))
        .collect();
    if starts.first() != Some(&0) {
        starts.insert(0, 0);
    }
    starts.push(text.len());
    starts
        .windows(2)
        .map(|w| &text[w[0]..w[1]])
        .filter(|section| !section.is_empty())
        .map(|section| {
            let id = section
                .strip_prefix("### ")
                .and_then(|rest| rest.split_whitespace().next())
                .unwrap_or("");
            (id, section)
        })
        .collect()
}

/// Merge freshly rendered figure sections into an existing `SUMMARY.md`:
/// a figure that was already there is replaced in place, a new one is
/// appended, and every other figure's section is kept — so regenerating
/// one figure does not drop the rest.
pub fn merge_summary(existing: &str, update: &str) -> String {
    let fresh = summary_sections(update);
    let kept = summary_sections(existing);
    let replaced = kept.iter().map(|&(id, section)| {
        let rerun = fresh.iter().find(|(fresh_id, _)| *fresh_id == id);
        rerun.map_or(section, |&(_, replacement)| replacement)
    });
    let appended = fresh
        .iter()
        .filter(|(id, _)| !kept.iter().any(|(kept_id, _)| kept_id == id))
        .map(|&(_, section)| section);
    replaced.chain(appended).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("figX", "Test figure", "batch", "MOps/s");
        let mut a = Series::new("CuART");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("GRT");
        b.push(1.0, 5.0);
        fig.series.push(a);
        fig.series.push(b);
        fig
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "batch,CuART,GRT");
        assert_eq!(lines[1], "1,10.0000,5.0000");
        assert_eq!(lines[2], "2,20.0000,");
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### figX"));
        assert!(md.contains("| CuART |"));
        assert!(md.contains("| 1 | 10.00 | 5.00 |"));
    }

    #[test]
    fn series_lookup_helpers() {
        let fig = sample();
        assert_eq!(fig.series("CuART").unwrap().y_at(2.0), Some(20.0));
        assert!(fig.series("nope").is_none());
        assert_eq!(fig.series("CuART").unwrap().max_y(), 20.0);
    }

    #[test]
    fn single_figure_summaries_merge_by_section() {
        let fig_x = sample();
        let mut fig_y = sample();
        fig_y.id = "figY".into();
        // Two single-figure runs in a row: both sections survive.
        let first = merge_summary("", &fig_x.to_markdown());
        let both = merge_summary(&first, &fig_y.to_markdown());
        assert_eq!(both, fig_x.to_markdown() + &fig_y.to_markdown());
        // Re-running the first replaces its section where it stood.
        let mut rerun = sample();
        rerun.series[0].points[0].1 = 11.0;
        let merged = merge_summary(&both, &rerun.to_markdown());
        assert_eq!(merged, rerun.to_markdown() + &fig_y.to_markdown());
        assert!(merged.contains("| 1 | 11.00 | 5.00 |"));
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("cuart-bench-test");
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert!(content.starts_with("batch,"));
    }
}
