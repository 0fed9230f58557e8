//! One module per table/figure of the paper's evaluation (§7).
//!
//! Every experiment returns serialisable rows plus a rendered text table,
//! so the `repro` binary can both print and archive results. The mapping
//! from experiment to paper artefact is in DESIGN.md §4.

pub mod ablation;
pub mod asyncq;
pub mod dominance;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod multigpu;
pub mod outofcore;
pub mod phi;
pub mod races;
pub mod serve;
pub mod simperf;
pub mod soak;
pub mod sweep010;
pub mod sweep100;
pub mod table2;
pub mod table3;
pub mod telemetry;
pub mod tilesize;
pub mod trace;

/// Render a uniform text table: header + rows of equal arity.
#[must_use]
pub fn text_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&head));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_renders() {
        let t = super::text_table(
            "demo",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20000".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("bbbb"));
        assert!(t.lines().count() >= 4);
    }
}
