//! The operator's side of Fig. 2 (§III.B): "Cluster operators can have
//! similar data available to them, albeit, for the entire cluster. This
//! enables the operators to perform data analysis on the job metrics data
//! to optimize the cluster usage, identify users and/or projects that are
//! using the cluster resources inefficiently."
//!
//! This example runs a churny cluster for a while, then produces the
//! operator report: fleet totals, energy by project, and the inefficiency
//! hunt — jobs holding many cores at low utilisation, and their wasted
//! energy.
//!
//! ```sh
//! cargo run --release --example operator_report -- --minutes 45
//! ```

use std::collections::BTreeMap;

use ceems::apiserver::schema::{unit_cols, UNITS_TABLE};
use ceems::prelude::*;
use ceems::relstore::{Filter, Query};

fn main() {
    let minutes: f64 = std::env::args()
        .skip_while(|a| a != "--minutes")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(45.0);

    let mut cfg = CeemsConfig {
        churn: Some(ChurnSettings {
            users: 16,
            projects: 5,
            arrivals_per_hour: 240.0,
        }),
        ..CeemsConfig::default()
    };
    cfg.cluster.intel_nodes = 8;
    cfg.cluster.amd_nodes = 4;
    cfg.cluster.a100_nodes = 2;
    let dir = std::env::temp_dir().join(format!("ceems-op-{}", std::process::id()));
    let mut stack = CeemsStack::build(cfg, &dir).unwrap();
    println!("running {minutes:.0} simulated minutes of churn...");
    stack.run_for(minutes * 60.0, 15.0);

    let st = stack.stats();
    println!(
        "\n=== fleet report (t = {:.0} s) ===",
        stack.clock.now_secs()
    );
    println!(
        "nodes: {}   jobs submitted: {}   running now: {}",
        stack.cluster.len(),
        st.jobs_submitted,
        stack.scheduler.lock().running_count()
    );
    println!(
        "fleet wall power (ground truth): {:.1} kW   attributed to jobs: {:.1} kW",
        stack.cluster.total_wall_power() / 1000.0,
        stack.total_attributed_power() / 1000.0
    );

    let upd = stack.updater.lock();

    // Energy by project.
    println!("\n--- energy by project ---");
    // (units, energy, emissions, sum and count of the non-NULL CPU means)
    let mut projects: BTreeMap<&str, (i64, f64, f64, f64, usize)> = BTreeMap::new();
    for r in upd.db().table(UNITS_TABLE).unwrap().scan() {
        let p = projects
            .entry(r[unit_cols::PROJECT].as_text().unwrap_or(""))
            .or_default();
        p.0 += 1;
        p.1 += r[unit_cols::ENERGY_KWH].as_real().unwrap_or(0.0);
        p.2 += r[unit_cols::EMISSIONS_G].as_real().unwrap_or(0.0);
        if let Some(cpu) = r[unit_cols::AVG_CPU_USAGE].as_real() {
            p.3 += cpu;
            p.4 += 1;
        }
    }
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>10}",
        "PROJECT", "UNITS", "ENERGY-KWH", "EMISSIONS-G", "AVG-CPU%"
    );
    for (project, (units, kwh, grams, cpu_sum, cpu_n)) in &projects {
        let avg_cpu = if *cpu_n == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", cpu_sum / *cpu_n as f64)
        };
        println!("{project:<10} {units:>6} {kwh:>12.4} {grams:>12.1} {avg_cpu:>10}");
    }

    // The inefficiency hunt: finished/running units with ≥8 cores below
    // 20% average CPU (the "idle allocation" anti-pattern).
    println!("\n--- inefficient allocations (≥8 cores, <20% avg CPU) ---");
    let units = upd
        .db()
        .query(
            UNITS_TABLE,
            &Query::all().filter(Filter::And(vec![
                Filter::Ge("ncpus".into(), ceems::relstore::Value::Int(8)),
                Filter::Lt(
                    "avg_cpu_usage_pct".into(),
                    ceems::relstore::Value::Real(20.0),
                ),
                Filter::Gt(
                    "avg_cpu_usage_pct".into(),
                    ceems::relstore::Value::Real(0.0),
                ),
            ])),
        )
        .unwrap();
    println!(
        "{:<14} {:<10} {:>6} {:>9} {:>12} {:>14}",
        "UUID", "USER", "CPUS", "AVG-CPU%", "ENERGY-KWH", "WASTE-EST-KWH"
    );
    let mut wasted_total = 0.0;
    for r in units.iter().take(12) {
        let cpus = r[unit_cols::NCPUS].as_real().unwrap_or(0.0);
        let cpu_pct = r[unit_cols::AVG_CPU_USAGE].as_real().unwrap_or(0.0);
        let kwh = r[unit_cols::ENERGY_KWH].as_real().unwrap_or(0.0);
        // Rough waste estimate: energy share proportional to unused cores.
        let waste = kwh * (1.0 - cpu_pct / 100.0);
        wasted_total += waste;
        println!(
            "{:<14} {:<10} {:>6} {:>9.1} {:>12.4} {:>14.4}",
            r[unit_cols::UUID].to_string(),
            r[unit_cols::USER].to_string(),
            cpus,
            cpu_pct,
            kwh,
            waste
        );
    }
    if units.is_empty() {
        println!("(none found in this run — raise --minutes for more churn)");
    } else {
        println!(
            "\n{} inefficient units; ≈{wasted_total:.3} kWh attributable to idle allocation",
            units.len()
        );
    }
    drop(upd);
    std::fs::remove_dir_all(dir).ok();
}
