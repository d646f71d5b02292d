//! The `service` and `service-cold` workloads: an in-process
//! `tempart-server` with its default configuration, driven over loopback
//! TCP by a closed loop of client connections that frame requests exactly
//! as `tempart-client` does.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempart_cli::proto::{read_frame, write_frame, Request, Response, SolveParams};
use tempart_cli::SpecFile;
use tempart_server::{start, ServerConfig, ServerHandle, StatsSnapshot};

use crate::spec::{service_spec, SERVICE_CONFIG};
use crate::trace::{concat, Span, Tracer};

/// Client connections in the closed loop.
pub const CLIENTS: usize = 2;
/// Specs in the hot pool that repeats are drawn from.
pub const HOT_POOL: usize = 6;
/// Share of requests that repeat a hot-pool spec.
const REPEAT_SHARE: f64 = 0.5;
/// Specs each `service-cold` client cycles through: twice the default
/// server's 32-entry cache.
pub const COLD_CYCLE: usize = 64;

/// What the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `service`: about half repeats of a cached hot-pool spec, half fresh
    /// seed-drawn specs.
    Mixed,
    /// `service-cold`: every request misses the cache. Each client cycles
    /// through its own [`COLD_CYCLE`] specs, more than the server's cache
    /// holds, so a spec is always evicted before its client sends it again.
    Cold,
}

impl Mix {
    /// Pooled specs beyond the hot pool.
    fn cold_specs(self) -> usize {
        match self {
            Mix::Mixed => 0,
            Mix::Cold => COLD_CYCLE * CLIENTS,
        }
    }
}

/// A spec the clients may send: pooled specs first (the hot pool, then
/// any cold cycles), then every fresh spec in the order it was drawn.
pub type SpecId = usize;

/// One request/response round trip as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub spec: SpecId,
    /// Request write to `Result` frame, s.
    pub latency: f64,
    /// Request write to `Accepted` frame, s.
    pub accept: f64,
    /// `Accepted` to `Result`, s.
    pub result: f64,
    /// `Request::to_json`, s.
    pub encode: f64,
    /// `Response::from_json` of the `Result` frame, s.
    pub decode: f64,
    /// The server's own admission-to-terminal time, s.
    pub job: f64,
    /// Server status (`optimal`, `infeasible`, ...) or a client-side
    /// failure (`rejected:...`, `error:...`).
    pub status: String,
    pub cost: Option<u64>,
    /// Warm-start cache disposition (`hit`, `miss`, `stale`, `uncached`).
    pub cache: String,
}

impl Exchange {
    pub fn proven(&self) -> bool {
        matches!(
            self.status.as_str(),
            "optimal" | "infeasible" | "infeasible-config"
        )
    }
}

fn params() -> SolveParams {
    SolveParams {
        config: Some(SERVICE_CONFIG),
        warm_start: true,
        ..SolveParams::default()
    }
}

/// Sends one solve and waits for its terminal frame. Transport and
/// protocol failures come back as an `Err` status.
fn exchange(
    stream: &mut TcpStream,
    spec: &SpecFile,
    id: SpecId,
    answer: usize,
    t: &mut Tracer,
) -> Exchange {
    let mut ex = Exchange {
        spec: id,
        latency: 0.0,
        accept: 0.0,
        result: 0.0,
        encode: 0.0,
        decode: 0.0,
        job: 0.0,
        status: String::new(),
        cost: None,
        cache: String::new(),
    };
    let t0 = Instant::now();
    let json = std::hint::black_box(
        Request::Solve {
            spec: spec.clone(),
            params: params(),
        }
        .to_json(),
    );
    let sent = Instant::now();
    ex.encode = (sent - t0).as_secs_f64();
    if let Err(e) = write_frame(stream, &json) {
        ex.status = format!("error:write:{e}");
        return ex;
    }
    let mut accepted = None;
    loop {
        let frame = match read_frame(stream) {
            Ok(Some(f)) => f,
            Ok(None) => {
                ex.status = "error:closed".into();
                return ex;
            }
            Err(e) => {
                ex.status = format!("error:read:{e}");
                return ex;
            }
        };
        let got = Instant::now();
        let response = Response::from_json(&frame);
        let decoded = Instant::now();
        match response {
            Ok(Response::Accepted { .. }) => accepted = Some(decoded),
            Ok(Response::Progress { .. }) => {}
            Ok(Response::Result { summary, .. }) => {
                let acc = accepted.unwrap_or(got);
                ex.latency = (got - sent).as_secs_f64();
                ex.accept = (acc - sent).as_secs_f64();
                ex.result = (got - acc).as_secs_f64();
                ex.decode = (decoded - got).as_secs_f64();
                ex.job = summary.seconds;
                ex.status = summary.status;
                ex.cost = summary.cost;
                ex.cache = summary.cache;
                let a = Some(t.record(None, "answer", answer, t0, decoded));
                t.record(a, "cli.encode", answer, t0, sent);
                t.record(a, "server.accept", answer, sent, acc);
                t.record(a, "server.result", answer, acc, got);
                t.record(a, "cli.decode", answer, got, decoded);
                return ex;
            }
            Ok(Response::Rejected { reason }) => {
                ex.status = format!("rejected:{reason}");
                return ex;
            }
            Ok(other) => {
                ex.status = format!("error:unexpected frame {other:?}");
                return ex;
            }
            Err(e) => {
                ex.status = format!("error:decode:{e}");
                return ex;
            }
        }
    }
}

/// The pooled specs: `hot` hot-pool specs, then the cold cycles of `mix`.
pub fn spec_pool(seed: u64, hot: usize, mix: Mix) -> Vec<SpecFile> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<SpecFile> = (0..hot)
        .map(|i| service_spec(format!("hot-{i:02}"), &mut rng))
        .collect();
    pool.extend((0..mix.cold_specs()).map(|i| service_spec(format!("cold-{i:03}"), &mut rng)));
    pool
}

/// A running server with its hot pool cached.
pub struct Service {
    pub server: ServerHandle,
    pub mix: Mix,
    /// The pooled specs; the first `hot` are the cached hot pool.
    pub pool: Vec<SpecFile>,
    pub hot: usize,
    /// Each client's next position in its cold cycle, kept across windows
    /// so that a later window does not resend recently cached specs. Each
    /// slot is only ever touched by its own client thread.
    cold_next: [AtomicUsize; CLIENTS],
}

/// Set-up: draw the spec pool, start the server, and warm it by solving
/// each hot-pool spec once (filling the warm-start cache).
pub fn set_up(seed: u64, hot: usize, mix: Mix) -> Result<Service, String> {
    let pool = spec_pool(seed, hot, mix);
    let config = ServerConfig::default();
    if mix == Mix::Cold && COLD_CYCLE <= config.cache_capacity {
        return Err(format!(
            "a cold cycle of {COLD_CYCLE} specs fits the {}-entry cache",
            config.cache_capacity
        ));
    }
    let server = start(config).map_err(|e| format!("server start: {e}"))?;
    let mut stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut off = Tracer::new(false, Instant::now());
    for (i, spec) in pool[..hot].iter().enumerate() {
        let ex = exchange(&mut stream, spec, i, 0, &mut off);
        if ex.status != "optimal" {
            return Err(format!("warm-up solve of hot spec {i}: {}", ex.status));
        }
    }
    Ok(Service {
        server,
        mix,
        pool,
        hot,
        cold_next: Default::default(),
    })
}

/// One client's exchanges (with the fresh spec each one sent, if any) and
/// spans.
type ClientRun = (Vec<(Exchange, Option<SpecFile>)>, Vec<Span>);

/// What the clients did in one window.
pub struct Window {
    pub exchanges: Vec<Exchange>,
    /// Fresh specs in [`SpecId`] order after the hot pool.
    pub fresh: Vec<SpecFile>,
    pub wall: f64,
    pub stats_before: StatsSnapshot,
    pub stats_after: StatsSnapshot,
    pub spans: Vec<Span>,
}

/// Runs the closed loop for `seconds`. Client `c` draws its request
/// sequence from its own seeded stream, so the sequence is fixed by the
/// seed; only how far it gets depends on speed. `stream_tag` separates the
/// fresh specs of successive windows.
pub fn drive(
    svc: &Service,
    seed: u64,
    stream_tag: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Result<Window, String> {
    let addr = svc.server.addr();
    let stats_before = svc.server.stats();
    let started = Instant::now();
    let per_client: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let stream = (stream_tag << 8) | (c as u64 + 1);
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut t = Tracer::new(traced, epoch);
                    let mut stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds {
                        let answer = c * 1_000_000 + out.len();
                        let (id, fresh) = match svc.mix {
                            Mix::Cold => {
                                let k = svc.cold_next[c].fetch_add(1, Ordering::Relaxed);
                                (svc.hot + c * COLD_CYCLE + k % COLD_CYCLE, None)
                            }
                            Mix::Mixed if rng.gen_bool(REPEAT_SHARE) => {
                                (rng.gen_range(0..svc.hot), None)
                            }
                            Mix::Mixed => {
                                let name = format!("fresh-{stream_tag}-{c}-{}", out.len());
                                (usize::MAX, Some(service_spec(name, &mut rng)))
                            }
                        };
                        let spec = fresh.as_ref().unwrap_or_else(|| &svc.pool[id]);
                        let ex = exchange(&mut stream, spec, id, answer, &mut t);
                        let broken = ex.status.starts_with("error:");
                        out.push((ex, fresh));
                        if broken {
                            break;
                        }
                    }
                    Ok((out, t.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let stats_after = svc.server.stats();
    let mut exchanges = Vec::new();
    let mut fresh = Vec::new();
    let mut client_spans = Vec::with_capacity(CLIENTS);
    for client in per_client {
        let (out, spans) = client?;
        client_spans.push(spans);
        for (mut ex, spec) in out {
            if let Some(s) = spec {
                fresh.push(s);
                ex.spec = svc.pool.len() + fresh.len() - 1;
            }
            exchanges.push(ex);
        }
    }
    let spans = concat(client_spans);
    Ok(Window {
        exchanges,
        fresh,
        wall,
        stats_before,
        stats_after,
        spans,
    })
}
