//! Command line of the end-to-end benchmark; see `README.md`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ceems_e2ebench::run::{run_untraced, Outcome, RunArgs};
use ceems_e2ebench::schedule::{workload, REFERENCE_SECONDS, WORKLOADS};
use ceems_e2ebench::traced::run_traced;
use ceems_e2ebench::{aa, fixture, sys};

const USAGE: &str = "usage: e2e --workload <name> --seed <n> [--seconds <n>] [--trace [0|1]] \
                     [--smoke] [--history <path>]\n       e2e --aa <sets> <runs> [--seed <n>] \
                     [--seconds <n>]";

/// Default seed; 1337 is the held-out one claims must also hold on.
const DEFAULT_SEED: u64 = 42;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    history: Option<PathBuf>,
    aa: Option<(usize, usize)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        history: None,
        aa: None,
    };
    let mut it = args.iter().peekable();
    fn value<'a, T: std::str::FromStr>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<T, String> {
        it.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, "--workload")?),
            "--seed" => cli.seed = value(&mut it, "--seed")?,
            "--seconds" => cli.seconds = value(&mut it, "--seconds")?,
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--history" => cli.history = Some(value(&mut it, "--history")?),
            "--aa" => cli.aa = Some((value(&mut it, "--aa")?, value(&mut it, "--aa")?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(cli)
}

fn counts_json(o: &Outcome, cli: &Cli) -> String {
    let c = &o.counts;
    let n = fixture::fanout();
    format!(
        "{{\"counts\": {{\"samples_appended\": {}, \"series\": {}, \"rule_series_written\": {}, \
         \"jobs\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"power_digest\": \"{:016x}\", \
         \"power_sum_watts\": {}}}, \
         \"config\": {{\"git_sha\": \"{}\", \"available_parallelism\": {}, \"threads\": {n}, \
         \"query_threads\": {n}, \"reactor_threads\": 1, \"http_workers\": {}, \
         \"client_connections\": 1, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        c.samples_appended,
        c.series,
        c.rule_series_written,
        c.jobs,
        o.attempted,
        o.failed,
        c.power_digest,
        c.power_sum_watts,
        sys::git_sha(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        fixture::HTTP_WORKERS,
        cli.seed,
        cli.seconds,
        cli.trace,
    )
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some((sets, runs)) = cli.aa {
        return aa::run(sets, runs, cli.seed, cli.seconds);
    }
    let name = cli
        .workload
        .as_deref()
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let spec = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;

    // Scratch data lives beside the executable: inside the checkout, under
    // the build directory `.gitignore` already names.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe_dir = exe.parent().ok_or("executable has no directory")?;
    let work_dir = exe_dir.join(format!("e2e-work-{}", std::process::id()));
    let args = RunArgs {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        work_dir: work_dir.clone(),
        trace_dir: exe_dir.to_path_buf(),
    };
    let (wall, cpu) = (Instant::now(), sys::process_cpu_s());
    let outcome = if cli.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome?;

    println!(
        "workload {} seed {} seconds {} trace {}{}",
        spec.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        if cli.smoke {
            " (smoke: checks only, numbers not gated)"
        } else {
            ""
        }
    );
    for m in outcome.metrics.iter().chain(&outcome.ungated) {
        let as_timed = m
            .as_timed
            .map_or(String::new(), |t| format!("   (as timed: {t:.4})"));
        println!("  {:<34} {:>16.4} {}{as_timed}", m.name, m.value, m.unit);
    }
    println!(
        "  ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    let counts = counts_json(&outcome, cli);
    let result = outcome.result_json()?;
    if let Some(path) = &cli.history {
        let row = format!(
            "{{\"workload\": \"{}\", \"run_wall_s\": {}, \"run_cpu_s\": {}, \"context\": {counts}, \
             \"result\": {result}}}\n",
            spec.name,
            wall.elapsed().as_secs_f64(),
            sys::process_cpu_s() - cpu,
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(row.as_bytes()))
            .map_err(|e| format!("append to {path:?}: {e}"))?;
    }
    println!("{counts}");
    println!("{result}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
