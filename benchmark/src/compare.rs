//! `compare <base> <new>`: the A/A gate now, the parent-vs-change gate
//! later. Each file is the concatenated standard output of untraced
//! runs, one per workload; the lines that are full reports are read and
//! the rest ignored.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The rounds of one side scatter more widely than the bound: the
    /// two medians cannot be told apart at this resolution.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's median and MAD over the rounds.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub mad: f64,
}

impl Side {
    fn spread(self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            self.mad / self.value.abs()
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when it is better.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(base: Side, new: Side, better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(base.value, new.value, better);
    if base.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The full reports in `text`, by workload name.
///
/// # Errors
///
/// A workload reported twice, or no report at all.
pub fn reports(text: &str) -> Result<Vec<(String, Json)>, String> {
    let mut found: Vec<(String, Json)> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        let Some(workload) = json.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if json.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        if found.iter().any(|(w, _)| w == workload) {
            return Err(format!("workload {workload} is reported twice"));
        }
        found.push((workload.to_owned(), json));
    }
    if found.is_empty() {
        return Err("no untraced report found".to_owned());
    }
    Ok(found)
}

fn side(report: &Json, metric: &str) -> Option<Side> {
    let m = report.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        mad: m.get("mad")?.as_f64()?,
    })
}

#[derive(Debug)]
pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
    /// Workloads in which more ops failed than in the base.
    pub failures_rose: usize,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.worse == 0 && self.failures_rose == 0
    }
}

/// Compares every workload both files report, metric by metric.
///
/// # Errors
///
/// Files without reports, or without a workload in common.
pub fn compare(base_text: &str, new_text: &str) -> Result<Comparison, String> {
    let base = reports(base_text).map_err(|e| format!("base: {e}"))?;
    let new = reports(new_text).map_err(|e| format!("new: {e}"))?;
    let mut out = Comparison {
        table: String::new(),
        worse: 0,
        unresolved: 0,
        failures_rose: 0,
    };
    let _ = writeln!(
        out.table,
        "{:<11} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "mad(b)", "mad(n)", "bound"
    );
    let mut shared = 0;
    for (workload, base_report) in &base {
        let Some((_, new_report)) = new.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        shared += 1;
        for metric in spec::end_to_end() {
            let (Some(b), Some(n)) = (
                side(base_report, &metric.name),
                side(new_report, &metric.name),
            ) else {
                return Err(format!(
                    "{workload}: {} is missing from a report",
                    metric.name
                ));
            };
            let bound = metric.bound.expect("every end-to-end metric has a bound");
            let v = verdict(b, n, metric.better, bound);
            out.worse += (v == Verdict::Worse) as usize;
            out.unresolved += (v == Verdict::Unresolved) as usize;
            // The sign is the metric's own; whether that is good news
            // depends on its direction, which the verdict knows.
            let change = if b.value == 0.0 {
                0.0
            } else {
                (n.value - b.value) / b.value.abs()
            };
            let _ = writeln!(
                out.table,
                "{:<11} {:<22} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>6.2}% {:>5.0}%  {}",
                workload,
                metric.name,
                b.value,
                n.value,
                change * 100.0,
                b.spread() * 100.0,
                n.spread() * 100.0,
                bound * 100.0,
                v.name()
            );
        }
        let failed = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let (fb, fnew) = (failed(base_report), failed(new_report));
        let rose = fnew > fb;
        out.failures_rose += rose as usize;
        let _ = writeln!(
            out.table,
            "{:<11} {:<22} {:>14.6} {:>14.6} {:>43}",
            workload,
            "failed_share",
            fb,
            fnew,
            if rose { "worse" } else { "same" }
        );
    }
    if shared == 0 {
        return Err("the two files have no workload in common".to_owned());
    }
    let _ = writeln!(
        out.table,
        "{} worse, {} unresolved, failed_share rose in {} of {shared} workloads",
        out.worse, out.unresolved, out.failures_rose
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, mad: f64) -> Side {
        Side { value, mad }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(side(100.0, 1.0), side(104.0, 1.0), Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(106.0, 1.0), Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(106.0, 1.0), Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(94.0, 1.0), Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(100.0, 6.0), side(120.0, 1.0), Lower, 0.05),
            Verdict::Unresolved
        );
    }

    fn report(workload: &str, ops_per_s: f64, failed_share: f64) -> String {
        let metrics = spec::end_to_end().into_iter().map(|m| {
            let value = if m.name.starts_with("ops_per_s") {
                ops_per_s
            } else {
                1.0
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("mad", Json::Num(0.001))]),
            )
        });
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("trace", Json::Bool(false)),
            ("failed_share", Json::Num(failed_share)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    #[test]
    fn a_slower_run_or_a_new_failure_fails_the_gate() {
        let base = format!(
            "noise\n{}\n{{\"correct\": true}}\n",
            report("ring", 1000.0, 0.0)
        );
        let same = compare(&base, &report("ring", 990.0, 0.0)).unwrap();
        assert!(same.passed() && same.unresolved == 0, "{}", same.table);
        let slower = compare(&base, &report("ring", 800.0, 0.0)).unwrap();
        assert_eq!(slower.worse, 4, "{}", slower.table);
        assert!(!slower.passed());
        let failing = compare(&base, &report("ring", 1000.0, 0.01)).unwrap();
        assert!(failing.worse == 0 && !failing.passed());
        assert!(compare(&base, &report("pbb", 1000.0, 0.0)).is_err());
        assert!(compare(&base, "nothing here").is_err());
        let twice = format!("{base}{base}");
        assert!(compare(&twice, &base).is_err());
    }
}
