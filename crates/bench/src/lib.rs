//! Experiment harness: the bench [`spine`] (record format, registry, gate
//! driver), the seven system benches, and the paper's evaluation ([`paper`]).
//!
//! Each module under `paper/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index) as a [`spine::Bench`]: `xmoe-cli
//! bench <name>` runs one, `xmoe-cli bench paper` the full set. An entry
//! returns the rows/series the paper reports as records and states one
//! `[shape]` claim per headline result: the reproduction targets *shape*
//! (who wins, by roughly what factor, where crossovers fall), not absolute
//! hardware numbers.

pub mod flags;
pub mod paper;
pub mod spine;

pub mod elastic;
pub mod gemm;
pub mod hotpath;
pub mod mapping;
pub mod overlap;
pub mod serving;
pub mod stability;

use std::time::Instant;

/// Render a text table with a header row; benches print through
/// [`spine::print_records`].
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        fmt_row(row);
    }
}

/// Format seconds as engineering-readable.
pub(crate) fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// The one timing loop of every A-vs-B comparison: `passes` passes, each
/// timing every arm once in turn with `fence` (a barrier for multi-rank
/// arms, a no-op otherwise) on both sides; the fastest pass of each arm, in
/// seconds. Interleaving puts a burst of OS noise on one pass of each arm
/// rather than on every pass of one arm, and the min per arm drops it.
pub(crate) fn time_interleaved(
    passes: usize,
    fence: &dyn Fn(),
    arms: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; arms.len()];
    for _ in 0..passes {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            fence();
            let t0 = Instant::now();
            arm();
            fence();
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    best
}

/// Format bytes as GiB with two decimals.
pub(crate) fn fmt_gib(bytes: u64) -> String {
    format!("{:.2} GiB", bytes as f64 / (1024.0 * 1024.0 * 1024.0))
}

/// A crude ASCII sparkline for printed "figures".
pub(crate) fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| GLYPHS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_picks_scale() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0021), "2.10 ms");
        assert_eq!(fmt_time(15e-6), "15.0 us");
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn fmt_gib_formats() {
        assert_eq!(fmt_gib(1024 * 1024 * 1024), "1.00 GiB");
    }
}
