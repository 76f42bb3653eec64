//! A PromQL query is input from outside the process: the load balancer,
//! the query frontend and the TSDB parse what a dashboard sends them, each
//! on an HTTP worker's 2 MiB stack. Whatever the text, `parse_expr`
//! returns: it does not panic, it does not overflow that stack, and what
//! it allocates is bounded by a fixed multiple of the input. Fed arbitrary
//! strings, queries built from the language's own pieces, and nests of
//! every recursive form past `MAX_DEPTH`. Its own test binary: the
//! measuring allocator is process-wide (the tallies are per thread, so the
//! tests may run side by side).

use ceems_tsdb::promql::parse_expr;
use ceems_tsdb::promql::parser::MAX_DEPTH;
use proptest::prelude::*;

#[path = "common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Parses `query` on a thread with an HTTP worker's 2 MiB stack, drops the
/// tree there too, and holds both to the memory bound: a token per input
/// byte, whose list grows by doubling, and a tree node per token (about
/// 130 bytes requested per input byte at worst, one request of 64).
/// Returns whether the query parsed.
fn parse_within_bounds(query: &str) -> bool {
    let (parsed, total, largest) = std::thread::scope(|s| {
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let parse = || requested_by(|| parse_expr(query).is_ok());
        worker.spawn_scoped(s, parse).unwrap().join().unwrap()
    });
    assert!(
        largest <= 64 * query.len() + 4096,
        "one request of {largest} bytes for {} of input",
        query.len()
    );
    assert!(
        total <= 256 * query.len() + 16_384,
        "{total} bytes requested for {} of input",
        query.len()
    );
    parsed
}

/// Each recursive form as (opener, closer) around a leaf: `n` openers,
/// the leaf, `n` closers.
const FORMS: [(&str, &str); 7] = [
    ("(", ")"),
    ("-", ""),
    ("+", ""),
    ("abs(", ")"),
    ("sum(", ")"),
    ("sum by (job) (", ")"),
    ("up / (", ")"),
];

fn nest(levels: &[usize], leaf: &str) -> String {
    let open: String = levels.iter().map(|&f| FORMS[f].0).collect();
    let close: String = levels.iter().rev().map(|&f| FORMS[f].1).collect();
    format!("{open}{leaf}{close}")
}

#[test]
fn every_form_nested_past_the_bound_is_an_error() {
    for n in [MAX_DEPTH + 1, 4_000, 100_000] {
        for (form, (opener, _)) in FORMS.iter().enumerate() {
            let query = nest(&vec![form; n], "up");
            assert!(!parse_within_bounds(&query), "{opener:?} x{n} parsed");
        }
    }
    // A chain of binary operators grows the tree without nesting the text.
    for op in ["+", "-", "*", "/", "and", "or", "unless", ">", "== bool"] {
        let chain: String = (0..4_000).map(|_| format!("up {op} ")).collect();
        parse_within_bounds(&format!("{chain}up"));
    }
}

#[test]
fn nests_within_the_bound_parse() {
    for form in 0..FORMS.len() {
        assert!(parse_within_bounds(&nest(
            &vec![form; MAX_DEPTH / 2 - 1],
            "up"
        )));
    }
}

/// Pieces of the language, to be put together at random: names, matchers,
/// ranges, operators, modifiers, numbers, and quotes and brackets left
/// open.
fn piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("up"),
        Just("uuid:ceems_power:watts"),
        Just("{"),
        Just("}"),
        Just("job=\"ceems\""),
        Just("uuid=~\"slurm-.*\""),
        Just("a!~\"(\""),
        Just(","),
        Just("("),
        Just(")"),
        Just("["),
        Just("]"),
        Just("[5m]"),
        Just("[0s]"),
        Just("[1y]"),
        Just("rate"),
        Just("histogram_quantile"),
        Just("quantile_over_time"),
        Just("clamp_min"),
        Just("sum"),
        Just("topk"),
        Just("by"),
        Just("without"),
        Just("on"),
        Just("ignoring"),
        Just("group_left"),
        Just("offset"),
        Just("bool"),
        Just("+"),
        Just("-"),
        Just("*"),
        Just("/"),
        Just("%"),
        Just("^"),
        Just("=="),
        Just(">="),
        Just("and"),
        Just("unless"),
        Just("0.9"),
        Just("1e308"),
        Just("1e999"),
        Just("NaN"),
        Just("-Inf"),
        Just("\""),
        Just("'"),
        Just("\\"),
        Just("é"),
        Just(" "),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        parse_within_bounds(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn promql_pieces_at_random(pieces in proptest::collection::vec(piece(), 0..64)) {
        parse_within_bounds(&pieces.concat());
    }

    /// The recursive forms mixed, around a leaf taken from the pieces,
    /// from shallow to past the bound.
    #[test]
    fn mixed_nests(
        levels in proptest::collection::vec(0..FORMS.len(), 0..400),
        leaf in piece(),
    ) {
        let parsed = parse_within_bounds(&nest(&levels, leaf));
        prop_assert!(!parsed || levels.len() <= MAX_DEPTH);
    }
}
