//! The `ceems` command-line tool: drive a simulated CEEMS deployment from
//! a single YAML configuration file (§II.D), inspect the generated
//! recording rules, and render the Fig. 2 dashboards.
//!
//! ```text
//! ceems simulate [--config FILE] [--minutes N]   run a monitored cluster
//! ceems rules [--group NAME]                     print Eq. (1) recording rules
//! ceems config-example                           print a sample config file
//! ceems help
//! ```

use ceems::core::attribution::{rules_for_group, NodeGroup};
use ceems::core::config;
use ceems::prelude::*;

const USAGE: &str = "ceems — Compute Energy & Emissions Monitoring Stack (simulated)\n\n\
     USAGE:\n  ceems simulate [--config FILE] [--minutes N]\n  \
     ceems rules [--group intel-dram|amd-nodram|gpu-typea|gpu-typeb]\n  \
     ceems config-example\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("ceems: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

/// Runs the subcommand `args` name; a usage error is returned.
fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().map_or(("help", &[][..]), |(c, rest)| (c.as_str(), rest));
    match cmd {
        "simulate" => {
            let flag = flags(rest, &["--config", "--minutes"])?;
            let minutes = match flag("--minutes") {
                None => 15.0,
                Some(m) => m.parse().ok().filter(|m: &f64| *m > 0.0 && m.is_finite()).ok_or(
                    format!("--minutes takes a positive number, got {m:?}"),
                )?,
            };
            simulate(flag("--config"), minutes);
        }
        "rules" => rules(flags(rest, &["--group"])?("--group")),
        "config-example" => flags(rest, &[]).map(|_| print!("{}", config::example()))?,
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

/// The `--name value` pairs after a subcommand; an unknown name or a missing value is an error.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<impl Fn(&str) -> Option<String> + 'a, String> {
    if let Some(bad) = args.chunks(2).find(|p| p.len() < 2 || !known.contains(&p[0].as_str())) {
        return Err(format!("unknown option, or one without a value: {:?}", bad[0]));
    }
    Ok(|name: &str| args.chunks(2).find(|pair| pair[0] == name).map(|pair| pair[1].clone()))
}

fn load_config(path: Option<String>) -> CeemsConfig {
    match path {
        None => CeemsConfig {
            churn: Some(ChurnSettings { users: 12, projects: 4, arrivals_per_hour: 180.0 }),
            ..CeemsConfig::default()
        },
        Some(p) => {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
                eprintln!("cannot read {p}: {e}");
                std::process::exit(1);
            });
            CeemsConfig::from_yaml(&text).unwrap_or_else(|e| {
                eprintln!("bad config {p}: {e}");
                std::process::exit(1);
            })
        }
    }
}

fn simulate(config_path: Option<String>, minutes: f64) {
    let cfg = load_config(config_path);
    let dir = std::env::temp_dir().join(format!("ceems-cli-{}", std::process::id()));
    println!(
        "building stack: {} nodes, {} GPUs, providers {:?}",
        cfg.cluster.total_nodes(),
        cfg.cluster.total_gpus(),
        cfg.emission_providers
    );
    let mut stack = CeemsStack::build(cfg, &dir).unwrap_or_else(|e| {
        eprintln!("stack build failed: {e}");
        std::process::exit(1);
    });

    let step = 15.0;
    let steps = (minutes * 60.0 / step) as usize;
    for i in 0..steps {
        stack.advance(step);
        if (i + 1) % 20 == 0 || i + 1 == steps {
            let st = stack.stats();
            // Its own statement: `total_attributed_power` takes the scheduler lock too.
            let running = stack.scheduler.lock().running_count();
            println!(
                "t={:>6.0}s jobs={:<5} running={:<4} series={:<7} samples={:<9} power={:.1} kW",
                stack.clock.now_secs(),
                st.jobs_submitted,
                running,
                stack.tsdb.series_count(),
                st.samples_scraped,
                stack.total_attributed_power() / 1000.0,
            );
        }
    }

    // Closing report: top users by energy.
    println!("\n=== energy by user (API server rollups) ===");
    let upd = stack.updater.lock();
    let mut rows = upd
        .db()
        .query(
            ceems::apiserver::schema::USAGE_TABLE,
            &ceems::relstore::Query::all(),
        )
        .unwrap_or_default();
    rows.sort_by(|a, b| {
        let ea = a[ceems::apiserver::schema::usage_cols::ENERGY_KWH]
            .as_real()
            .unwrap_or(0.0);
        let eb = b[ceems::apiserver::schema::usage_cols::ENERGY_KWH]
            .as_real()
            .unwrap_or(0.0);
        eb.total_cmp(&ea)
    });
    println!(
        "{:<10} {:<10} {:>6} {:>12} {:>12} {:>14}",
        "USER", "PROJECT", "UNITS", "CPU-HOURS", "ENERGY-KWH", "EMISSIONS-G"
    );
    for r in rows.iter().take(10) {
        let (user, project, n, cpu_h, _g, kwh, em) =
            ceems::apiserver::updater::usage_row_values(r);
        println!("{user:<10} {project:<10} {n:>6} {cpu_h:>12.2} {kwh:>12.4} {em:>14.1}");
    }
    let segments = ceems::relstore::log::list_segments(&upd.db().dir().join("wal"))
        .unwrap_or_default();
    let bytes: u64 = segments
        .iter()
        .filter_map(|(_, path)| std::fs::metadata(path).ok())
        .map(|m| m.len())
        .sum();
    println!("\napi db log: {} segments, {bytes} bytes", segments.len());
    drop(upd);
    std::fs::remove_dir_all(dir).ok();
}

fn rules(group: Option<String>) {
    let groups: Vec<NodeGroup> = match group.as_deref() {
        None => NodeGroup::all().to_vec(),
        Some(g) => match NodeGroup::all().into_iter().find(|n| n.label() == g) {
            Some(n) => vec![n],
            None => {
                eprintln!("unknown group {g:?}; expected one of: intel-dram amd-nodram gpu-typea gpu-typeb");
                std::process::exit(1);
            }
        },
    };
    for g in groups {
        println!("# --- node group: {} ---", g.label());
        for rule in rules_for_group(g, "2m") {
            let statics: Vec<String> = rule
                .static_labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "- record: {}{}\n  expr: {}",
                rule.record,
                if statics.is_empty() {
                    String::new()
                } else {
                    format!("  # labels: {}", statics.join(","))
                },
                rule.expr_src
            );
        }
        println!();
    }
}
