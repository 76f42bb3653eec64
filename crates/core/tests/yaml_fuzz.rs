//! A configuration file is operator input, typed by hand or templated by a
//! deployment tool, so whatever text it holds `yaml::parse` and
//! `CeemsConfig::from_yaml` return: they do not panic, and they request no
//! more memory than a fixed multiple of that text. Its own test binary: the
//! measuring allocator is process-wide (the tallies are per thread, so the
//! tests may run side by side).

use ceems_core::yaml::parse;
use ceems_core::CeemsConfig;
use proptest::prelude::*;

#[path = "../../tsdb/tests/common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Parses `text` both ways and holds each to its memory bound; returns
/// whether the configuration loaded. The constant covers the defaults
/// `from_yaml` starts from.
fn load_within_bounds(text: &str) -> bool {
    let input = text.len();
    let (_, total, largest) = requested_by(|| parse(text));
    assert!(
        largest <= 64 * input + (16 << 10),
        "parse: one request of {largest} bytes for {input} of input"
    );
    assert!(
        total <= 256 * input + (64 << 10),
        "parse: {total} bytes requested for {input} of input"
    );
    let (cfg, total, largest) = requested_by(|| CeemsConfig::from_yaml(text));
    assert!(
        largest <= 64 * input + (16 << 10),
        "from_yaml: one request of {largest} bytes for {input} of input"
    );
    assert!(
        total <= 256 * input + (64 << 10),
        "from_yaml: {total} bytes requested for {input} of input"
    );
    cfg.is_ok()
}

/// `depth` lines, each `step` columns deeper than the one before and
/// opening a block under it.
fn ladder(depth: usize, step: usize, rung: &str) -> String {
    (0..depth)
        .map(|i| format!("{}{rung}\n", " ".repeat(i * step)))
        .collect()
}

#[test]
fn the_sample_config_loads_within_the_bounds() {
    let text = "\
cluster:
  intel_nodes: 2
  seed: 7
tsdb:
  scrape_interval_s: 15
  rule_window: 2m
api_server:
  admin_users:
    - admin
    - \"ops # not a comment\"
obs:
  tenant_sample_rates:
    alice: 0.5
failover:
  replicas: 3
";
    assert!(load_within_bounds(text));
}

/// A ladder two thousand rungs deep once recursed a level per rung and
/// overflowed the stack; it is now an error at the nesting limit.
#[test]
fn a_deep_ladder_is_an_error_not_a_stack_overflow() {
    for rung in ["a:", "-", "- a:"] {
        let text = ladder(2_000, 1, rung);
        assert!(parse(&text).is_err(), "{rung:?}");
        assert!(!load_within_bounds(&text), "{rung:?}");
    }
    // Within the limit, a ladder parses.
    assert!(parse(&ladder(32, 2, "a:")).is_ok());
}

/// Pieces of the YAML the loader reads, to be put together at random:
/// config keys and values, dashes, quotes left open, comments.
fn piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("cluster:"),
        Just("tsdb:"),
        Just("obs:"),
        Just("failover:"),
        Just("api_server:"),
        Just("tenant_sample_rates:"),
        Just("admin_users:"),
        Just("rule_window: 2m"),
        Just("rule_window: \"5m"),
        Just("rule_window: [1h]"),
        Just("replicas: 1"),
        Just("intel_nodes: -3"),
        Just("trace_sample_rate: 1e999"),
        Just("a: 1"),
        Just("a:"),
        Just("-"),
        Just("- "),
        Just("- - -"),
        Just("- a: 1"),
        Just("- a:"),
        Just("\"a: b"),
        Just("'a': 'b"),
        Just("\"a\": \"b\" # \""),
        Just("a: 'it''s'"),
        Just("# only a comment"),
        Just(":"),
        Just("é: ü"),
        Just("\t"),
        Just("~"),
    ]
}

fn lines() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..12, piece()), 0..32).prop_map(|lines| {
        lines
            .into_iter()
            .map(|(indent, piece)| format!("{}{piece}\n", " ".repeat(indent)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        load_within_bounds(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn config_pieces_at_random_indents(text in lines()) {
        load_within_bounds(&text);
    }

    /// Keys repeated in one mapping, at the top and under a section.
    #[test]
    fn duplicate_keys(
        keys in proptest::collection::vec(prop_oneof![Just("a"), Just("b"), Just("tsdb")], 1..8),
        nested in any::<bool>(),
    ) {
        let indent = if nested { "  " } else { "" };
        let body: String = keys.iter().map(|k| format!("{indent}{k}: 1\n")).collect();
        let text = if nested { format!("tsdb:\n{body}") } else { body };
        let unique = keys.iter().collect::<std::collections::BTreeSet<_>>().len() == keys.len();
        prop_assert_eq!(parse(&text).is_ok(), unique, "{}", text);
        load_within_bounds(&text);
    }

    /// Quotes opened and never closed, in keys, values and comments.
    #[test]
    fn unbalanced_quotes(
        quotes in proptest::collection::vec(
            prop_oneof![Just("\""), Just("'"), Just("a"), Just(": "), Just("#"), Just("\n")],
            0..48,
        ),
    ) {
        load_within_bounds(&quotes.concat());
    }

    #[test]
    fn ladders(
        depth in 0usize..300,
        step in 1usize..4,
        rung in prop_oneof![Just("a:"), Just("-"), Just("- a:"), Just("- - a")],
    ) {
        load_within_bounds(&ladder(depth, step, rung));
    }

    /// `- ` chains on one line, and under each other.
    #[test]
    fn dash_chains(n in 0usize..400, stacked in any::<bool>()) {
        let text = if stacked { ladder(n, 2, "- -") } else { format!("{}x\n", "- ".repeat(n)) };
        load_within_bounds(&text);
    }
}
