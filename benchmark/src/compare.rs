//! `compare A B`: two directories of run-set files, one verdict per
//! (mode, workload, metric) against the bounds `BENCHMARK.json` fixes.
//!
//! With A and B from the same commit this is the A/A check: every bounded
//! cell must read `ok` and every device-model number `identical`.

use crate::metrics::END_TO_END;
use crate::stats::{quartiles, spread};
use cuart_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// (mode, workload, metric)
type Cell = (String, String, String);

/// One side's values of every cell, each with the seed it was run at.
#[derive(Debug, Default)]
pub struct RunSet {
    cells: BTreeMap<Cell, Vec<(u64, f64)>>,
    clocks: BTreeMap<String, String>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl RunSet {
    /// Every `*.json` run-set file directly under `dir`.
    pub fn load(dir: &Path) -> io::Result<RunSet> {
        let mut set = RunSet::default();
        let mut files: Vec<_> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for path in &files {
            let doc = json::parse(&fs::read_to_string(path)?)
                .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
            set.absorb(&doc)
                .ok_or_else(|| invalid(format!("{}: not a run-set file", path.display())))?;
        }
        if set.cells.is_empty() {
            return Err(invalid(format!("{}: no runs found", dir.display())));
        }
        Ok(set)
    }

    fn absorb(&mut self, doc: &Value) -> Option<()> {
        for run in doc.get("runs")?.as_array()? {
            let mode = run.get("mode")?.as_str()?;
            let workload = run.get("workload")?.as_str()?;
            let seed = run.get("seed")?.as_u64()?;
            let Value::Obj(metrics) = run.get("metrics")? else {
                return None;
            };
            for (name, m) in metrics {
                let cell = (mode.to_string(), workload.to_string(), name.clone());
                let value = m.get("value")?.as_f64()?;
                self.cells.entry(cell).or_default().push((seed, value));
                self.clocks
                    .insert(name.clone(), m.get("clock")?.as_str()?.to_string());
            }
            let cell = (
                mode.to_string(),
                workload.to_string(),
                "failed_share".to_string(),
            );
            let share = run.get("failed_share")?.as_f64()?;
            self.cells.entry(cell).or_default().push((seed, share));
            self.clocks.insert("failed_share".into(), "count".into());
        }
        Some(())
    }
}

/// An end-to-end metric's direction and allowed worsening.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The bounds `BENCHMARK.json` fixes, with the catalogue's directions.
pub fn load_bounds(path: &Path) -> io::Result<BTreeMap<String, Bound>> {
    let doc = json::parse(&fs::read_to_string(path)?)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    let parse = |m: &Value| {
        let name = m.get("name")?.as_str()?;
        let def = END_TO_END.iter().find(|d| d.name == name)?;
        let bound = Bound {
            higher_is_better: def.higher_is_better,
            bound: m.get("bound")?.as_f64()?,
        };
        Some((name.to_string(), bound))
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|a| a.iter().map(parse).collect())
        .ok_or_else(|| {
            invalid(format!(
                "{}: end_to_end does not match the catalogue",
                path.display()
            ))
        })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and the spread resolves it.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's interquartile spread is wider than the bound.
    Unresolved,
    /// A device-model number that repeats exactly per seed, and did.
    Identical,
    /// A device-model number that did not repeat, or a failure.
    Differs,
    /// No bound: listed for information.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Verdict of a bounded metric: `a` is the parent's values, `b` the change's.
pub fn bounded(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let (_, med_a, _) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    let worse_by = sign * (med_b - med_a) / med_a.abs();
    // Every run of B better than every run of A settles it whatever the spread.
    let best_a = a.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
    let worst_b = b.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
    if worst_b < best_a {
        Verdict::Ok
    } else if spread(a).max(spread(b)) > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Numbers that come from the generated bytes and the device model alone.
/// `host.*` modeled figures depend on how requests happened to batch.
fn repeats_exactly(metric: &str, clock: &str) -> bool {
    clock == "modeled" && !metric.starts_with("host.")
}

/// Whether every seed run on both sides read one single value.
fn identical_per_seed(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
    a.iter()
        .chain(b)
        .all(|&(seed, v)| *by_seed.entry(seed).or_insert(v) == v)
}

/// The comparison table, and whether any cell fails.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    writeln!(
        out,
        "{:<6} {:<20} {:<36} {:>14} {:>14} {:>14}   {:>14} {:>14} {:>14}  verdict",
        "mode", "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3"
    )
    .expect("write to String");
    for (cell, va) in &a.cells {
        let Some(vb) = b.cells.get(cell) else {
            continue;
        };
        let (mode, workload, metric) = cell;
        let values = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<f64>>();
        let (xa, xb) = (values(va), values(vb));
        let clock = a.clocks.get(metric).map_or("", String::as_str);
        let verdict = if metric == "failed_share" {
            if xa.iter().chain(&xb).all(|&v| v == 0.0) {
                Verdict::Identical
            } else {
                Verdict::Differs
            }
        } else if repeats_exactly(metric, clock) {
            if identical_per_seed(va, vb) {
                Verdict::Identical
            } else {
                Verdict::Differs
            }
        } else if let Some(&bound) = bounds.get(metric) {
            bounded(&xa, &xb, bound)
        } else {
            Verdict::Info
        };
        failed |= verdict.fails();
        let (a1, a2, a3) = quartiles(&xa);
        let (b1, b2, b3) = quartiles(&xb);
        writeln!(
            out,
            "{mode:<6} {workload:<20} {metric:<36} {a1:>14.6} {a2:>14.6} {a3:>14.6}   \
             {b1:>14.6} {b2:>14.6} {b3:>14.6}  {}",
            verdict.as_str()
        )
        .expect("write to String");
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Bound = Bound {
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER_10: Bound = Bound {
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn bounded_verdicts() {
        let a = [100.0, 101.0, 102.0];
        assert_eq!(bounded(&a, &[103.0, 104.0, 105.0], LOWER_10), Verdict::Ok);
        assert_eq!(
            bounded(&a, &[115.0, 116.0, 117.0], LOWER_10),
            Verdict::Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(bounded(&a, &[115.0, 116.0, 117.0], HIGHER_10), Verdict::Ok);
        assert_eq!(bounded(&a, &[85.0, 86.0, 87.0], HIGHER_10), Verdict::Worse);
        // A spread wider than the bound cannot resolve a 10 % question…
        assert_eq!(
            bounded(&a, &[80.0, 101.0, 130.0], LOWER_10),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(bounded(&a, &[40.0, 60.0, 90.0], LOWER_10), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_compare_per_seed() {
        assert!(identical_per_seed(
            &[(1, 5.0), (2, 6.0)],
            &[(2, 6.0), (1, 5.0), (1, 5.0)]
        ));
        assert!(!identical_per_seed(&[(1, 5.0)], &[(1, 5.000001)]));
        assert!(repeats_exactly("modeled_mops", "modeled"));
        assert!(repeats_exactly("gpu-sim.l2_hit_rate", "modeled"));
        assert!(!repeats_exactly("host.modeled_mops_served", "modeled"));
        assert!(!repeats_exactly("wall_ops_per_s", "wall"));
    }

    fn run_set(seed_values: &[(u64, f64, f64)]) -> RunSet {
        let runs: Vec<String> = seed_values
            .iter()
            .map(|(seed, ops, mops)| {
                format!(
                    "{{\"workload\":\"w\",\"mode\":\"run\",\"seed\":{seed},\"failed_share\":0,\
                     \"metrics\":{{\"wall_ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\",\"clock\":\"wall\"}},\
                     \"modeled_mops\":{{\"value\":{mops},\"unit\":\"Mops/s\",\"clock\":\"modeled\"}}}}}}"
                )
            })
            .collect();
        let doc = json::parse(&format!("{{\"runs\":[{}]}}", runs.join(","))).unwrap();
        let mut set = RunSet::default();
        set.absorb(&doc).expect("well-formed");
        set
    }

    #[test]
    fn table_flags_a_regression_and_a_changed_device_number() {
        let bounds = BTreeMap::from([("wall_ops_per_s".to_string(), HIGHER_10)]);
        let a = run_set(&[(1, 100.0, 7.5), (2, 101.0, 7.25), (1, 102.0, 7.5)]);
        let same = run_set(&[(1, 99.0, 7.5), (2, 100.0, 7.25), (2, 103.0, 7.25)]);
        let (table, failed) = compare(&a, &same, &bounds);
        assert!(!failed, "{table}");
        assert!(table.contains("identical") && table.contains(" ok"));

        let slower = run_set(&[(1, 80.0, 7.5), (2, 81.0, 7.25), (1, 82.0, 7.5)]);
        let (table, failed) = compare(&a, &slower, &bounds);
        assert!(failed && table.contains("worse"), "{table}");

        let remodeled = run_set(&[(1, 100.0, 7.6), (2, 101.0, 7.25), (1, 102.0, 7.6)]);
        let (table, failed) = compare(&a, &remodeled, &bounds);
        assert!(failed && table.contains("differs"), "{table}");
    }
}
