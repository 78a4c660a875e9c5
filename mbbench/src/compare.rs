//! `mbbench compare <a.jsonl> <b.jsonl>`: medians of two sets of runs
//! recorded with `--out`, per workload and metric.
//!
//! Refuses (exit code 2) when the sets' run conditions differ: pool
//! size, `nproc`, kernel backend, or the seeds run per workload. The git
//! revisions are shown, since comparing two revisions is the point.

use std::collections::BTreeMap;
use std::process::ExitCode;

use megablocks_telemetry::json::Json;

use crate::stats::{median, percentile};

struct Record {
    group: String,
    seed: u64,
    conditions: [String; 3],
    git_rev: String,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let cond = v.get("conditions").ok_or_else(|| bad("no conditions"))?;
        let text = |j: &Json, k: &str| -> Result<String, String> {
            match j.get(k) {
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(Json::Num(n)) => Ok(n.to_string()),
                _ => Err(bad(&format!("no {k}"))),
            }
        };
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(bad("no metrics"));
        };
        out.push(Record {
            group: format!("{} trace={}", text(&v, "workload")?, text(&v, "trace")?),
            seed: cond
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("no seed"))?,
            conditions: [
                text(cond, "pool")?,
                text(cond, "nproc")?,
                text(cond, "kernel_backend")?,
            ],
            git_rev: text(cond, "git_rev")?,
            metrics: metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(out)
}

fn seeds(records: &[Record], group: &str) -> Vec<u64> {
    let mut s: Vec<u64> = records
        .iter()
        .filter(|r| r.group == group)
        .map(|r| r.seed)
        .collect();
    s.sort_unstable();
    s
}

fn refusal(a: &[Record], b: &[Record]) -> Option<String> {
    let want = &a[0].conditions;
    if let Some(r) = a.iter().chain(b).find(|r| &r.conditions != want) {
        return Some(format!(
            "run conditions differ (pool, nproc, kernel backend): {want:?} vs {:?}",
            r.conditions
        ));
    }
    let groups: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.group.as_str()).collect();
    groups.into_iter().find_map(|g| {
        let (sa, sb) = (seeds(a, g), seeds(b, g));
        (sa != sb).then(|| format!("{g}: seeds differ: {sa:?} vs {sb:?}"))
    })
}

pub fn main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("usage: mbbench compare <a.jsonl> <b.jsonl>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mbbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("mbbench compare: refusing to compare: {why}");
        return ExitCode::from(2);
    }
    let revs = |rs: &[Record]| {
        let mut v: Vec<&str> = rs.iter().map(|r| r.git_rev.as_str()).collect();
        v.dedup();
        v.join(",")
    };
    println!("A: {}  B: {}", revs(&a), revs(&b));
    let mut by: BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (side, records) in [(0, &a), (1, &b)] {
        for r in records.iter() {
            for (m, v) in &r.metrics {
                let e = by.entry((r.group.clone(), m.clone())).or_default();
                if side == 0 { &mut e.0 } else { &mut e.1 }.push(*v);
            }
        }
    }
    println!(
        "{:<28} {:<26} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "median A", "median B", "B/A-1", "IQR A"
    );
    for ((group, metric), (va, vb)) in &by {
        let (ma, mb) = (median(va), median(vb));
        let iqr = (percentile(va, 75.0) - percentile(va, 25.0)) / ma.abs().max(f64::MIN_POSITIVE);
        println!(
            "{group:<28} {metric:<26} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>8.2}%",
            100.0 * (mb / ma - 1.0),
            100.0 * iqr
        );
    }
    ExitCode::SUCCESS
}
