//! Golden query answers. A fixed script drives the TSDB's query endpoints,
//! the query frontend (a render split over several extents, the same render
//! from cache, a partial hit, a degraded stale serve) and traced queries
//! through LB → frontend → TSDB; every body must equal, byte for byte, the
//! one checked in under `tests/golden/query_*.json`. Those files were
//! written by the code before the query API moved behind one codec, so a
//! changed byte here is a changed answer for Grafana.
//!
//! The trace id is pinned with `x-ceems-trace-id`. Wall-clock readings
//! cannot be: the number after every `"ms":` and `"totalMs":` is replaced
//! by `<t>` before comparing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceems::http::{Client, HttpServer, Method, Request, Response, ServerConfig, Status};
use ceems::lb::acl::Authorizer;
use ceems::lb::{Backend, BackendPool, CeemsLb, LbConfig, Strategy};
use ceems::metrics::labels;
use ceems::obs::TRACE_HEADER;
use ceems::prelude::*;
use ceems::qfe::{Downstream, HttpDownstream, QfeConfig, QueryFrontend, RouterDownstream};
use ceems::tsdb::httpapi::api_router;

const NOW_MS: i64 = 600_000;

/// Three series over 0 … 10 min at 15 s: one throughout, with values that
/// print awkwardly; one from 3 min on, with a NaN, signed zero, huge and
/// tiny values and a label value that needs escaping; one that ends at
/// 2 min. Series appear and vanish across extents, so the frontend's merge
/// has an order to rebuild.
fn db() -> Arc<Tsdb> {
    let db = Arc::new(Tsdb::default());
    let n1 = labels! {"__name__" => "power", "instance" => "n1"};
    let n2 = labels! {"__name__" => "power", "instance" => "n2", "note" => "a \"b\"\n\\ é"};
    let n3 = labels! {"__name__" => "power", "instance" => "n3"};
    let odd = [f64::NAN, -0.0, 1e21, 1e-7, 0.1 + 0.2, -12.5];
    for i in 0..=40i64 {
        let t = i * 15_000;
        db.append(&n1, t, 100.0 + i as f64 * 0.1);
        if i >= 12 {
            db.append(&n2, t, odd[i as usize % odd.len()]);
        }
        if i <= 8 {
            db.append(&n3, t, i as f64 / 3.0);
        }
    }
    db
}

/// `body` with the number after each `"ms":` and `"totalMs":` replaced.
fn masked(body: &[u8]) -> String {
    let text = String::from_utf8(body.to_vec()).expect("a JSON body is UTF-8");
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = ["\"ms\":", "\"totalMs\":"]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        out.push_str("<t>");
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn check(name: &str, resp: &Response, status: Status) {
    assert_eq!(resp.status, status, "{name}: {}", resp.body_string());
    let path = format!(
        "{}/tests/golden/query_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(masked(&resp.body), want, "{name} differs from its golden");
}

fn get(path: &str) -> Request {
    Request::new(Method::Get, path).with_header("x-grafana-user", "alice")
}

#[test]
fn tsdb_query_answers() {
    let router = api_router(db(), Arc::new(|| NOW_MS));
    for (name, path, status) in [
        (
            "scalar",
            "/api/v1/query?query=scalar(sum(power))&time=300",
            Status::OK,
        ),
        ("vector", "/api/v1/query?query=power&time=300.5", Status::OK),
        (
            "instant_matrix",
            "/api/v1/query?query=power[1m]&time=300",
            Status::OK,
        ),
        (
            "bad_time",
            "/api/v1/query?query=power&time=soon",
            Status::BAD_REQUEST,
        ),
        (
            "eval_error",
            "/api/v1/query?query=rate(power)",
            Status::UNPROCESSABLE,
        ),
        (
            "range_matrix",
            "/api/v1/query_range?query=power&start=0&end=600&step=60",
            Status::OK,
        ),
        (
            "range_too_many_points",
            "/api/v1/query_range?query=power&start=0&end=9999999999&step=0.001",
            Status::UNPROCESSABLE,
        ),
        ("series", "/api/v1/series?match[]=power", Status::OK),
        ("labels", "/api/v1/labels", Status::OK),
    ] {
        check(name, &router.dispatch(get(path)), status);
    }
}

/// The TSDB's router behind a switch that makes every replica look down.
struct Switchable {
    inner: RouterDownstream,
    down: AtomicBool,
}

impl Downstream for Switchable {
    fn forward(&self, req: &Request) -> Result<Response, String> {
        if self.down.load(Ordering::SeqCst) {
            return Err("connection refused".into());
        }
        self.inner.forward(req)
    }
}

#[test]
fn frontend_renders() {
    let ds = Arc::new(Switchable {
        inner: RouterDownstream::new(api_router(db(), Arc::new(|| NOW_MS))),
        down: AtomicBool::new(false),
    });
    let fe = QueryFrontend::new(
        ds.clone() as Arc<dyn Downstream>,
        QfeConfig {
            split_interval_ms: 120_000,
            recent_window_ms: 0,
            now: Arc::new(|| NOW_MS),
            ..QfeConfig::default()
        },
    );
    let render = |name: &str, path: &str, outcome: &str| {
        let resp = fe.handle(&get(path));
        assert_eq!(resp.header("x-ceems-qfe-cache"), Some(outcome), "{name}");
        check(name, &resp, Status::OK);
    };
    let split = "/api/v1/query_range?query=power&start=0&end=480&step=15";
    render("qfe_split", split, "miss");
    render("qfe_cached", split, "hit");
    render(
        "qfe_partial",
        "/api/v1/query_range?query=power&start=120&end=600&step=15",
        "partial",
    );
    ds.down.store(true, Ordering::SeqCst);
    render(
        "qfe_degraded",
        "/api/v1/query_range?query=power&start=0&end=720&step=15",
        "degraded",
    );
}

#[test]
fn traced_queries_through_lb_frontend_and_tsdb() {
    let tsdb = HttpServer::serve(
        ServerConfig::ephemeral(),
        api_router(db(), Arc::new(|| NOW_MS)),
    )
    .unwrap();
    let fe = QueryFrontend::new(
        Arc::new(HttpDownstream::new(vec![tsdb.base_url()])),
        QfeConfig {
            split_interval_ms: 120_000,
            recent_window_ms: 0,
            now: Arc::new(|| NOW_MS),
            ..QfeConfig::default()
        },
    );
    let fe_srv = fe.serve().unwrap();
    let lb = CeemsLb::new(
        BackendPool::new(
            vec![Backend::new("b1", tsdb.base_url())],
            Strategy::round_robin(),
        ),
        Authorizer::AllowAll,
        LbConfig {
            admin_users: vec!["op".into()],
            query_frontend: Some(fe_srv.base_url()),
            trace_sink: None,
        },
    );
    for (name, path) in [
        (
            "traced_instant",
            "/api/v1/query?query=power&time=300&trace=1",
        ),
        (
            "traced_range",
            "/api/v1/query_range?query=power&start=0&end=480&step=15&trace=1",
        ),
    ] {
        let req = Request::new(Method::Get, path)
            .with_header("x-grafana-user", "op")
            .with_header(TRACE_HEADER, "feedc0defeedc0de");
        let resp = lb.handle(&req);
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("qfe"), "{name}");
        check(name, &resp, Status::OK);
    }
    // The same traced query straight from the frontend, over HTTP.
    let resp = Client::new()
        .with_header("x-grafana-user", "op")
        .with_header(TRACE_HEADER, "feedc0defeedc0de")
        .get(&format!(
            "{}/api/v1/query?query=power&time=300&trace=1",
            fe_srv.base_url()
        ))
        .unwrap();
    check("traced_instant_frontend", &resp, Status::OK);
    fe_srv.shutdown();
    tsdb.shutdown();
}
