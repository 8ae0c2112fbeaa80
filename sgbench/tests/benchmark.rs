//! The benchmark's own checks: seeded inputs are reproducible, seeds
//! matter, and the metric names printed are exactly the ones
//! `BENCHMARK.json` declares.

use serde::json::Value as Json;
use sg_analysis::SweepReport;
use sgbench::metrics::{valid_name, Cost, Report, END_TO_END, PER_LAYER};
use sgbench::sweep::workers;
use sgbench::workload::{sweep_job, Kind, ServeStream, Workload, NAMES};

fn sweep(workload: Workload, seed: u64) -> (Vec<SweepReport>, Cost) {
    let mut cost = Cost::default();
    let reports: Vec<SweepReport> = sweep_job(workload, seed, 0, false)
        .iter()
        .map(|g| g.plan().run_with_jobs(workers()))
        .collect();
    reports.iter().for_each(|r| cost.add(r));
    (reports, cost)
}

#[test]
fn one_seed_reproduces_grids_fingerprints_and_costs() {
    for workload in [Workload::SweepKernel, Workload::SweepTree] {
        for j in 0..3 {
            assert_eq!(
                sweep_job(workload, 7, j, false),
                sweep_job(workload, 7, j, false)
            );
        }
        let (a, cost_a) = sweep(workload, 7);
        let (b, cost_b) = sweep(workload, 7);
        let fa: Vec<u64> = a.iter().map(SweepReport::fingerprint).collect();
        let fb: Vec<u64> = b.iter().map(SweepReport::fingerprint).collect();
        assert_eq!(fa, fb);
        assert_eq!(cost_a, cost_b);
        assert!(cost_a.runs > 0 && cost_a.rounds > 0 && cost_a.bits > 0 && cost_a.ops > 0);
    }

    let mut a = ServeStream::new(7, 0, false);
    let mut b = ServeStream::new(7, 0, false);
    let mut kinds = Vec::new();
    for _ in 0..60 {
        let (x, y) = (a.next_job(), b.next_job());
        assert_eq!((x.kind, x.grid_id, &x.grid), (y.kind, y.grid_id, &y.grid));
        kinds.push(x.kind);
    }
    for kind in [Kind::New, Kind::Widened, Kind::Exact] {
        assert!(kinds.contains(&kind), "{kind:?} never drawn");
    }
    let job = ServeStream::new(7, 1, false).next_job();
    assert_eq!(
        job.grid.plan().run_with_jobs(1).fingerprint(),
        job.grid.plan().run_with_jobs(workers()).fingerprint()
    );
}

#[test]
fn another_seed_yields_other_grids() {
    for workload in [Workload::SweepKernel, Workload::SweepTree] {
        assert_ne!(
            sweep_job(workload, 7, 0, false),
            sweep_job(workload, 8, 0, false)
        );
        assert_ne!(
            sweep_job(workload, 7, 0, false),
            sweep_job(workload, 7, 1, false)
        );
    }
    let x = ServeStream::new(7, 0, false).next_job();
    let y = ServeStream::new(8, 0, false).next_job();
    assert_ne!(x.grid, y.grid);
    let other_conn = ServeStream::new(7, 1, false).next_job();
    assert_ne!(x.grid.base_seed, other_conn.grid.base_seed);
}

#[test]
fn warm_up_and_timed_streams_are_disjoint() {
    for workload in [Workload::SweepKernel, Workload::SweepTree] {
        assert_ne!(
            sweep_job(workload, 7, 0, true),
            sweep_job(workload, 7, 0, false)
        );
    }
    let warm = ServeStream::new(7, 0, true).next_job();
    assert_ne!(warm.grid, ServeStream::new(7, 0, false).next_job().grid);
}

#[test]
fn widened_jobs_keep_earlier_cells_at_their_addresses() {
    let mut stream = ServeStream::new(3, 0, false);
    let mut grids = Vec::new();
    for _ in 0..80 {
        let job = stream.next_job();
        if job.kind == Kind::Widened {
            let plan = job.grid.plan();
            let (configs, advs) = (plan.configs.len(), plan.adversaries.len());
            let earlier = grids
                .iter()
                .find(|g: &&sgbench::workload::Grid| {
                    g.base_seed == job.grid.base_seed && g.advs.len() + 1 == advs
                })
                .expect("widened from an earlier grid");
            let before = earlier.plan();
            for ci in 0..configs {
                for ai in 0..advs - 1 {
                    let old = before.cell_key(ci * (advs - 1) + ai);
                    assert_eq!(old, plan.cell_key(ci * advs + ai));
                }
            }
        }
        grids.push(job.grid);
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        assert!(seen.insert(*name), "{name} listed twice");
    }
    for name in NAMES {
        assert!(valid_name(name));
    }
    assert!(!valid_name("bad name"));
}

fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_sets_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);

    for (traced, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let mut report = Report::default();
        for (name, _) in names {
            report.set(name, 1.5, 1);
        }
        report.count(true);
        let text = report.render("sweep-kernel", traced);
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics object")
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().into(),
                )
            })
            .collect();
        assert_eq!(printed, owned(names));
    }
}

#[test]
fn a_failed_operation_makes_the_run_incorrect() {
    let mut report = Report::default();
    report.count(true);
    assert!(report.correct());
    report.count(false);
    assert!(!report.correct());
    for (name, _) in END_TO_END {
        report.set(name, 1.0, 1);
    }
    assert!(report.render("sweep-tree", false).ends_with("}}}\n"));
    assert!(report
        .render("sweep-tree", false)
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
}
