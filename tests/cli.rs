//! The `ceems` binary refuses what it cannot honour: a misspelt command, an
//! unknown option or a `--minutes` that is not a positive number exits
//! non-zero with the reason, instead of running something else.

use std::process::{Command, Output};

fn ceems(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ceems"))
        .args(args)
        .output()
        .expect("the ceems binary runs")
}

fn refused(args: &[&str], reason: &str) {
    let out = ceems(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn bad_commands_and_options_exit_non_zero() {
    refused(&["simulate", "--minutes", "fifteen"], "--minutes");
    refused(&["simulate", "--minutes", "-5"], "--minutes");
    refused(&["simulate", "--minutes", "0"], "--minutes");
    refused(&["simulte"], "unknown command \"simulte\"");
    refused(&["simulate", "--minuts", "5"], "--minuts");
    refused(&["simulate", "--config"], "--config");
    refused(&["config-example", "extra"], "extra");
    refused(
        &["simulate", "--config", "/nonexistent/ceems.yaml"],
        "cannot read",
    );
}

#[test]
fn help_exits_zero() {
    for args in [&[][..], &["help"], &["--help"]] {
        let out = ceems(args);
        assert!(out.status.success(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    }
}

/// The printed example is the defaults, and `simulate` runs from it and
/// reports the size of the API server's log.
#[test]
fn the_printed_example_runs() {
    let out = ceems(&["config-example"]);
    assert!(out.status.success());
    let example = String::from_utf8(out.stdout).unwrap();
    assert_eq!(example, ceems::core::config::example());

    let path = std::env::temp_dir().join(format!("ceems-cli-example-{}.yaml", std::process::id()));
    std::fs::write(&path, &example).unwrap();
    let out = ceems(&[
        "simulate",
        "--config",
        path.to_str().unwrap(),
        "--minutes",
        "1",
    ]);
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("building stack: 8 nodes"));
    let log_line = |l: &str| l.starts_with("api db log: ") && l.ends_with(" bytes");
    assert!(stdout.lines().any(log_line), "{stdout}");
}
