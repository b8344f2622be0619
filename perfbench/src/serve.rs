//! The `serve-tenants` workload: the campaign service as deployed — the
//! HTTP listener (`ObsServer::serve_with` + `imufit_serve::handler`), a
//! `CampaignService` over a one-worker pool and a fresh result store —
//! driven over localhost TCP by two closed-loop tenants.
//!
//! Each tenant walks a script of small campaigns (1 mission × {2 s} × one
//! fault kind × 3 targets = 4 runs), alternating a fresh spec (a cache
//! miss) with a resubmission of the spec it just completed, re-serialised
//! with its keys reordered (a cache hit). The script runs in whole rounds
//! of the seven fault kinds, in an order rotated by the seed: run length
//! depends strongly on the kind (a `Min` fault crashes three of four runs
//! at 92 s, a `Noise` fault completes all four at ~470 s), so whole rounds
//! keep the work per round the same for every seed. `alpha` (priority 1) is on a
//! fast link; `beta` (priority 2) writes each request head 20 ms after it
//! connects, which holds the listener's inline accept thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imufit::core::{Campaign, CampaignConfig};
use imufit::faults::FaultKind;
use imufit::fleet::{FleetError, WorkerExit};
use imufit::scenario::ScenarioSpec;
use imufit::serve::{handler, CampaignService, ServiceConfig};
use imufit_obs::http::{ObsServer, DEFAULT_MAX_BODY_BYTES};

use crate::campaign::{self, BoxStats};
use crate::report::Report;
use crate::{checks, replay, stats, sys, Args, THREADS};

/// Status polling interval of the clients.
const POLL: Duration = Duration::from_millis(50);

/// How long `beta` waits between connecting and writing a request head.
const SLOW_LINK: Duration = Duration::from_millis(20);

/// Stack set-ups whose median is `setup_s`.
const SETUP_REPS: usize = 7;

/// Fresh campaigns per tenant and round: one per fault kind.
const ROUND: u64 = FaultKind::ALL.len() as u64;

/// No campaign of this workload takes anywhere near this long.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(120);

/// A tenant of the script.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    name: &'static str,
    index: u64,
    priority: u32,
    head_delay: Duration,
}

const TENANTS: [Tenant; 2] = [
    Tenant {
        name: "alpha",
        index: 0,
        priority: 1,
        head_delay: Duration::ZERO,
    },
    Tenant {
        name: "beta",
        index: 1,
        priority: 2,
        head_delay: SLOW_LINK,
    },
];

/// The `i`-th fresh campaign of a tenant: its own seed, and the fault
/// kinds in turn, starting at an offset set by the workload seed.
fn serve_spec(seed: u64, tenant: u64, i: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default();
    spec.name = "serve-tenants".to_string();
    spec.campaign.missions = 1;
    spec.campaign.durations = vec![2.0];
    spec.campaign.seed = imufit::math::rng::derive_seed(seed, &[tenant, i]);
    let kinds = FaultKind::ALL;
    let rotation = seed.wrapping_add(i + 3 * tenant) % kinds.len() as u64;
    spec.faults.kinds = vec![kinds[rotation as usize]];
    spec.validate().expect("serve campaign is valid");
    spec
}

/// The same TOML document with its sections, and the keys inside each
/// section, in reverse order.
pub fn reorder_keys(toml: &str) -> String {
    let mut top: Vec<&str> = Vec::new();
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in toml.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with('[') {
            sections.push((line, Vec::new()));
        } else if let Some((_, keys)) = sections.last_mut() {
            keys.push(line);
        } else {
            top.push(line);
        }
    }
    let mut out = String::new();
    for line in top.iter().rev() {
        out.push_str(line);
        out.push('\n');
    }
    for (header, keys) in sections.iter().rev() {
        out.push('\n');
        out.push_str(header);
        out.push('\n');
        for key in keys.iter().rev() {
            out.push_str(key);
            out.push('\n');
        }
    }
    out
}

/// One HTTP exchange as the client saw it.
struct Reply {
    code: u16,
    body: String,
}

/// One `Connection: close` request; the latency runs from connect to the
/// last response byte.
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    head_delay: Duration,
) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    if !head_delay.is_zero() {
        std::thread::sleep(head_delay);
    }
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let code = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { code, body })
}

/// A bare field of the service's status JSON (`"key": value,`).
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": ");
    body.lines().find_map(|l| {
        l.trim()
            .strip_prefix(&marker)
            .map(|v| v.trim_end_matches(',').trim_matches('"'))
    })
}

/// The service as deployed, with one in-process pool worker.
struct Stack {
    service: Arc<CampaignService>,
    server: ObsServer,
    worker: JoinHandle<Result<WorkerExit, FleetError>>,
}

/// Starts the listener, the pool and its worker; returns once the pool
/// has answered the worker's handshake and the HTTP edge answers.
///
/// The pool counts the bytes of every reply except `Done` in
/// `fleet_bytes_sent_total`, so once earlier pools are shut down (their
/// workers get only uncounted `Done` replies) the first increase is this
/// pool's `Welcome`.
fn start_stack(store: &Path) -> Stack {
    let sent = imufit_obs::counter("fleet_bytes_sent_total");
    let before = sent.get();
    let service =
        CampaignService::start(ServiceConfig::new(store.to_path_buf())).expect("service starts");
    let server = ObsServer::serve_with(
        "127.0.0.1:0",
        Some(service.aggregate()),
        Some(handler(Arc::clone(&service))),
        DEFAULT_MAX_BODY_BYTES,
    )
    .expect("listener binds");
    let pool = service.worker_addr();
    let worker = std::thread::spawn(move || imufit::fleet::run_worker(pool, 0));
    let deadline = Instant::now() + Duration::from_secs(30);
    while sent.get() == before {
        assert!(Instant::now() < deadline, "pool worker never connected");
        std::thread::sleep(Duration::from_millis(1));
    }
    while !request(server.addr(), "GET", "/healthz", "", Duration::ZERO)
        .is_ok_and(|r| r.code == 200)
    {
        assert!(Instant::now() < deadline, "listener never answered");
        std::thread::sleep(Duration::from_millis(1));
    }
    Stack {
        service,
        server,
        worker,
    }
}

/// A pool worker thread that has been told to leave.
type Leaving = JoinHandle<Result<WorkerExit, FleetError>>;

/// Drains the pool and stops the listener. The worker sees `Done` on its
/// next request and exits after its heartbeat thread's next beat (up to
/// 2 s later), so it is joined separately by [`join_worker`].
fn stop_stack(stack: Stack) -> Leaving {
    stack.service.shutdown();
    stack.server.shutdown();
    stack.worker
}

/// Joins a leaving worker; an abnormal exit is a failed check.
fn join_worker(worker: Leaving, report: &mut Report) {
    let exit = worker.join();
    report.check(matches!(exit, Ok(Ok(WorkerExit::CampaignComplete))), || {
        format!("pool worker exited abnormally: {exit:?}")
    });
}

/// Starts [`SETUP_REPS`] stacks and keeps the last; returns it with the
/// median set-up time in seconds and the workers of the stopped stacks.
fn setup(scratch: &Path) -> (Stack, f64, Vec<Leaving>) {
    let mut times = Vec::new();
    let mut leaving = Vec::new();
    loop {
        let store = scratch.join(format!("store-{}", times.len()));
        let t = Instant::now();
        let stack = start_stack(&store);
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return (stack, stats::median(&times), leaving);
        }
        leaving.push(stop_stack(stack));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    SubmitMiss,
    SubmitHit,
    Status,
    Results,
}

/// One request as the client timed it.
struct RequestLog {
    endpoint: Endpoint,
    start_us: u64,
    ms: f64,
    ok: bool,
}

/// One campaign as the client saw it.
struct CampaignLog {
    /// Index of the spec in the tenant's fresh-spec list.
    spec: usize,
    resubmission: bool,
    cached: bool,
    dispatched: u64,
    units_total: u64,
    dispatch_wait_ms: Option<f64>,
    turnaround_s: f64,
    csv: Option<String>,
}

/// What one tenant did.
struct ClientLog {
    tenant: Tenant,
    specs: Vec<ScenarioSpec>,
    bodies: Vec<String>,
    requests: Vec<RequestLog>,
    campaigns: Vec<CampaignLog>,
}

impl ClientLog {
    fn timed(
        &mut self,
        origin: Instant,
        endpoint: Endpoint,
        f: impl FnOnce() -> std::io::Result<Reply>,
    ) -> Option<Reply> {
        let t = Instant::now();
        let reply = f();
        let ok = reply.as_ref().is_ok_and(|r| r.code == 200 || r.code == 201);
        self.requests.push(RequestLog {
            endpoint,
            start_us: (t - origin).as_micros() as u64,
            ms: t.elapsed().as_secs_f64() * 1e3,
            ok,
        });
        reply.ok().filter(|_| ok)
    }

    /// Submits `body`, polls until complete, fetches the CSV.
    fn campaign(&mut self, addr: SocketAddr, origin: Instant, spec: usize, resubmission: bool) {
        let tenant = self.tenant;
        let body = if resubmission {
            reorder_keys(&self.bodies[spec])
        } else {
            self.bodies[spec].clone()
        };
        let endpoint = if resubmission {
            Endpoint::SubmitHit
        } else {
            Endpoint::SubmitMiss
        };
        let target = format!(
            "/campaigns?tenant={}&priority={}",
            tenant.name, tenant.priority
        );
        let t = Instant::now();
        let Some(reply) = self.timed(origin, endpoint, || {
            request(addr, "POST", &target, &body, tenant.head_delay)
        }) else {
            return;
        };
        let id = json_field(&reply.body, "campaign")
            .unwrap_or("0")
            .to_string();
        let cached = json_field(&reply.body, "cached") == Some("true");
        let units_total = json_field(&reply.body, "units_total")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut status = reply.body;
        let mut dispatch_wait_ms = None;
        while json_field(&status, "state") != Some("complete") {
            if t.elapsed() > CAMPAIGN_TIMEOUT {
                self.requests.push(RequestLog {
                    endpoint: Endpoint::Status,
                    start_us: (t - origin).as_micros() as u64,
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    ok: false,
                });
                return;
            }
            std::thread::sleep(POLL);
            let path = format!("/campaigns/{id}");
            if let Some(reply) = self.timed(origin, Endpoint::Status, || {
                request(addr, "GET", &path, "", tenant.head_delay)
            }) {
                status = reply.body;
            }
            let dispatched: u64 = json_field(&status, "dispatched")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if dispatched > 0 && dispatch_wait_ms.is_none() {
                dispatch_wait_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let path = format!("/campaigns/{id}/results");
        let csv = self
            .timed(origin, Endpoint::Results, || {
                request(addr, "GET", &path, "", tenant.head_delay)
            })
            .map(|r| r.body);
        self.campaigns.push(CampaignLog {
            spec,
            resubmission,
            cached,
            dispatched: json_field(&status, "dispatched")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            units_total,
            dispatch_wait_ms,
            turnaround_s: t.elapsed().as_secs_f64(),
            csv,
        });
    }
}

/// A closed-loop session: both tenants walk their scripts in rounds of
/// `round` fresh campaigns (each followed by its resubmission). After each
/// round they meet and stop together once `seconds` have passed, so every
/// session is a whole number of rounds for both tenants.
struct Session {
    clients: Vec<ClientLog>,
    wall: Duration,
    cpu: Duration,
}

fn session(addr: SocketAddr, seed: u64, seconds: Duration, round: u64) -> Session {
    let cpu0 = sys::process_cpu();
    let origin = Instant::now();
    let meet = Barrier::new(TENANTS.len());
    let done = AtomicBool::new(false);
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|&tenant| {
                let (meet, done) = (&meet, &done);
                scope.spawn(move || {
                    let mut log = ClientLog {
                        tenant,
                        specs: Vec::new(),
                        bodies: Vec::new(),
                        requests: Vec::new(),
                        campaigns: Vec::new(),
                    };
                    let mut i = 0;
                    while !done.load(Ordering::SeqCst) {
                        for _ in 0..round {
                            let spec = serve_spec(seed, tenant.index, i);
                            log.bodies.push(spec.to_toml());
                            log.specs.push(spec);
                            let index = log.specs.len() - 1;
                            log.campaign(addr, origin, index, false);
                            log.campaign(addr, origin, index, true);
                            i += 1;
                        }
                        if meet.wait().is_leader() {
                            done.store(origin.elapsed() >= seconds, Ordering::SeqCst);
                        }
                        meet.wait();
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Session {
        clients,
        wall: origin.elapsed(),
        cpu: sys::process_cpu() - cpu0,
    }
}

/// The campaigns computed by the pool: every completed miss, as
/// (client, spec) pairs.
fn computed(session: &Session) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (c, client) in session.clients.iter().enumerate() {
        for log in client.campaigns.iter().filter(|l| !l.resubmission) {
            out.push((c, log.spec));
        }
    }
    out
}

/// Checks every served CSV against the reference of its spec and the
/// cache contract; returns (requests, failed operations).
fn check_session(
    report: &mut Report,
    session: &Session,
    computed: &[(usize, usize)],
    references: &[String],
) -> (u64, u64) {
    let mut requests = 0;
    let mut failed = 0;
    for (c, client) in session.clients.iter().enumerate() {
        requests += client.requests.len() as u64;
        failed += client.requests.iter().filter(|r| !r.ok).count() as u64;
        let name = client.tenant.name;
        for log in &client.campaigns {
            let reference = computed
                .iter()
                .position(|&k| k == (c, log.spec))
                .map(|k| references[k].as_str());
            let failures = match (&log.csv, reference) {
                (Some(csv), Some(reference)) => checks::identical(
                    &format!("{name} campaign {} CSV vs in-process run", log.spec),
                    reference,
                    csv,
                ),
                _ => vec![format!("{name} campaign {} has no CSV", log.spec)],
            };
            failed += failures.len() as u64;
            report.fail_all(failures);
            if log.resubmission {
                report.check(log.cached && log.dispatched == 0, || {
                    format!(
                        "{name} resubmission {} reported cached={} dispatched={}",
                        log.spec, log.cached, log.dispatched
                    )
                });
            } else {
                report.check(!log.cached, || {
                    format!("{name} fresh campaign {} hit the cache", log.spec)
                });
            }
        }
    }
    (requests, failed)
}

/// The `serve.*` and `fleet.*` metrics of a session.
fn layer_metrics(report: &mut Report, session: &Session) {
    let alpha = &session.clients[0];
    let beta = &session.clients[1];
    let ms = |client: &ClientLog, endpoint: Option<Endpoint>| -> Vec<f64> {
        client
            .requests
            .iter()
            .filter(|r| endpoint.is_none_or(|e| r.endpoint == e))
            .map(|r| r.ms)
            .collect()
    };
    let all_logs = || session.clients.iter().flat_map(|c| c.campaigns.iter());
    let misses: Vec<f64> = all_logs()
        .filter(|l| !l.resubmission)
        .map(|l| l.turnaround_s)
        .collect();
    let hits: Vec<f64> = all_logs()
        .filter(|l| l.resubmission)
        .map(|l| l.turnaround_s * 1e3)
        .collect();
    let waits: Vec<f64> = all_logs().filter_map(|l| l.dispatch_wait_ms).collect();
    let (dispatched, units) = all_logs()
        .filter(|l| !l.resubmission)
        .fold((0, 0), |(d, u), l| (d + l.dispatched, u + l.units_total));
    let submissions = all_logs().count();
    let cached = all_logs().filter(|l| l.cached).count();
    let resubmissions = all_logs().filter(|l| l.resubmission).count();
    report.check(cached == resubmissions, || {
        format!("{cached} cache hits for {resubmissions} resubmissions")
    });

    let all = ms(alpha, None);
    report.metric("serve.turnaround_p50_s", stats::median(&misses), "s");
    report.metric("serve.cache_hit_p50_ms", stats::median(&hits), "ms");
    report.metric("serve.http_p50_ms", stats::q(&all, 0.5), "ms");
    report.metric("serve.http_p99_ms", stats::q(&all, 0.99), "ms");
    report.metric(
        "serve.submit_miss_ms_p50",
        stats::median(&ms(alpha, Some(Endpoint::SubmitMiss))),
        "ms",
    );
    report.metric(
        "serve.submit_hit_ms_p50",
        stats::median(&ms(alpha, Some(Endpoint::SubmitHit))),
        "ms",
    );
    let status = ms(alpha, Some(Endpoint::Status));
    report.metric("serve.status_ms_p50", stats::q(&status, 0.5), "ms");
    report.metric("serve.status_ms_p99", stats::q(&status, 0.99), "ms");
    report.metric(
        "serve.results_ms_p50",
        stats::median(&ms(alpha, Some(Endpoint::Results))),
        "ms",
    );
    report.metric(
        "serve.slow_client_ms_p50",
        stats::median(&ms(beta, None)),
        "ms",
    );
    report.metric("fleet.dispatch_wait_ms_p50", stats::median(&waits), "ms");
    report.metric(
        "fleet.dispatch_per_unit",
        dispatched as f64 / units.max(1) as f64,
        "ratio",
    );
    report.metric(
        "fleet.cache_hit_ratio",
        cached as f64 / submissions.max(1) as f64,
        "ratio",
    );
}

/// Request spans of a session, one JSON object per line.
fn request_spans(session: &Session) -> Vec<String> {
    session
        .clients
        .iter()
        .flat_map(|c| {
            c.requests.iter().map(move |r| {
                format!(
                    "{{\"tenant\": \"{}\", \"endpoint\": \"{:?}\", \"start_us\": {}, \"ms\": {}, \
                     \"ok\": {}}}",
                    c.tenant.name, r.endpoint, r.start_us, r.ms, r.ok
                )
            })
        })
        .collect()
}

/// Configurations of the campaigns the pool computed.
fn configs(session: &Session, computed: &[(usize, usize)]) -> Vec<CampaignConfig> {
    computed
        .iter()
        .map(|&(c, s)| CampaignConfig::from_scenario(&session.clients[c].specs[s]))
        .collect()
}

/// In-process reference CSVs, computed outside the timed section: one
/// `Campaign::run` per spec, [`THREADS`] specs at a time.
fn references(configs: &[CampaignConfig]) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let csvs: Mutex<Vec<String>> = Mutex::new(vec![String::new(); configs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = configs.get(i) else { break };
                let mut config = config.clone();
                config.threads = 1;
                let csv = Campaign::new(config).run().to_csv();
                csvs.lock()
                    .expect("no reference thread panics holding the lock")[i] = csv;
            });
        }
    });
    csvs.into_inner().expect("reference threads joined")
}

/// The untraced workload.
pub fn workload(args: &Args) -> Report {
    let mut report = Report::default();
    let (stack, setup_s, mut leaving) = setup(&args.scratch);
    report.metric("setup_s", setup_s, "s");
    let session = session(stack.server.addr(), args.seed, args.seconds, ROUND);
    leaving.push(stop_stack(stack));
    for worker in leaving {
        join_worker(worker, &mut report);
    }
    let computed = computed(&session);
    let references = references(&configs(&session, &computed));
    let (requests, failed) = check_session(&mut report, &session, &computed, &references);
    let runs: u64 = session
        .clients
        .iter()
        .flat_map(|c| c.campaigns.iter())
        .filter(|l| !l.resubmission)
        .map(|l| l.units_total)
        .sum();
    let turnaround: Vec<f64> = session
        .clients
        .iter()
        .flat_map(|c| c.campaigns.iter())
        .filter(|l| !l.resubmission)
        .map(|l| l.turnaround_s)
        .collect();
    report.check(runs > 0, || "the pool computed no runs".into());
    report.attempted = requests;
    report.failed = failed;
    report.metric(
        "runs_per_s",
        runs as f64 / session.wall.as_secs_f64(),
        "runs/s",
    );
    report.metric(
        "cpu_ms_per_run",
        session.cpu.as_secs_f64() * 1e3 / runs.max(1) as f64,
        "ms",
    );
    report.metric(
        "ok_share",
        1.0 - failed as f64 / requests.max(1) as f64,
        "ratio",
    );
    report.metric("turnaround_mean_s", stats::mean(&turnaround), "s");
    report
}

/// The traced run: the session, then the pool's campaigns re-run in
/// process at run and tick level, the kernel replay and the parse times.
pub fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let stack = start_stack(&args.scratch.join("store"));
    let session = session(stack.server.addr(), args.seed, args.seconds, ROUND);
    join_worker(stop_stack(stack), &mut report);
    report.metric("process.peak_rss_mb", sys::peak_rss_mib(), "MiB");
    let computed = computed(&session);
    let configs = configs(&session, &computed);
    let items = campaign::items(&configs);
    let a = campaign::run_level(&configs, &items);
    let mut b = campaign::tick_level(&configs, &items, &args.scratch);
    let (requests, _) = check_session(&mut report, &session, &computed, &a.csvs);
    campaign::layer_metrics(&mut report, &a, &mut b);
    layer_metrics(&mut report, &session);
    let mut boxes = BoxStats::default();
    replay::run(args.seed, &mut report, &mut boxes);
    boxes.report(&mut report);
    let bodies: Vec<String> = session
        .clients
        .iter()
        .flat_map(|c| c.bodies.iter())
        .flat_map(|body| [body.clone(), reorder_keys(body)])
        .collect();
    let parse = campaign::parse_us(&bodies);
    report.metric("scenario.parse_us_p50", stats::median(&parse), "us");
    campaign::write_spans(args, &a, &b, &request_spans(&session));
    report.attempted = requests;
    report
}

/// A one-pair-per-tenant session for the traced runs of the in-process
/// workloads, which do not drive the service themselves; its checks
/// apply as usual. Returns the request spans.
pub fn probe(args: &Args, report: &mut Report) -> Vec<String> {
    let stack = start_stack(&args.scratch.join("probe-store"));
    let session = session(stack.server.addr(), args.seed, Duration::ZERO, 1);
    join_worker(stop_stack(stack), report);
    let computed = computed(&session);
    let references = references(&configs(&session, &computed));
    check_session(report, &session, &computed, &references);
    layer_metrics(report, &session);
    request_spans(&session)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordered_keys_parse_to_the_same_scenario() {
        let spec = serve_spec(7, 1, 3);
        let toml = spec.to_toml();
        let reordered = reorder_keys(&toml);
        assert_ne!(reordered, toml);
        let parsed = ScenarioSpec::from_toml(&reordered).expect("reordered TOML parses");
        assert_eq!(parsed.to_toml(), toml);
    }

    #[test]
    fn serve_campaigns_have_four_runs() {
        let spec = serve_spec(11, 0, 0);
        assert_eq!(CampaignConfig::from_scenario(&spec).matrix().len(), 4);
    }
}
