//! The `daemon_table1` workload: an in-process `codegend`
//! (`serve::spawn`, default configuration and worker count) on port 0,
//! driven in a closed loop by one client thread per core. Each client
//! sends the five Table 1 kernels at `N = 64` as `POST /v1/gen`, one
//! connection per request, in an order drawn from the run's seed. Every
//! reply must carry the batch CodeGen+ text of its kernel. After each
//! round the calling thread runs the in-process CLooG pass over the same
//! kernels, which gives this workload its CLooG metrics.

use crate::batch::{layer_run, repeat_setup, report_inputs, EndToEnd};
use crate::programs::{
    check_one, generate, run_pass, shuffled, table1_kernels, verify, Program, Reference, Tally,
    Threads, Tool, TOOLS,
};
use crate::stats::{median, ms, nproc};
use crate::{Outcome, RunArgs};
use serve::{Config, Daemon, LogTarget};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Rounds every run makes at least.
const MIN_ROUNDS: usize = 3;

/// One `POST /v1/gen` as the client saw it.
#[derive(Debug)]
struct Reply {
    /// Index of the kernel in [`table1_kernels`] order.
    kernel: usize,
    status: u16,
    latency_ns: u64,
    code: String,
    lines: u64,
    codegen_ns: u64,
    compile_ns: u64,
    exact: bool,
}

/// Sends one kernel job and waits for its reply.
fn post_gen(addr: SocketAddr, kernel: usize, name: &str, client: usize) -> io::Result<Reply> {
    let body = format!(
        "{{\"kernel\":\"{name}\",\"n\":{},\"client\":\"c{client}\"}}",
        crate::programs::N
    );
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST /v1/gen HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let latency_ns = t0.elapsed().as_nanos() as u64;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let json = serve::json::parse(body).unwrap_or(serve::json::Json::Null);
    let num = |key: &str| json.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    Ok(Reply {
        kernel,
        status,
        latency_ns,
        code: json
            .get("code")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_owned(),
        lines: num("lines"),
        codegen_ns: num("codegen_ns"),
        compile_ns: num("compile_ns"),
        exact: json.get("certainty").and_then(|v| v.as_str()) == Some("exact"),
    })
}

/// A directory for the daemon's request logs, unique to this run (pid
/// and clock, not the pid alone) and removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir =
            PathBuf::from(".perfbench-tmp").join(format!("daemon-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

fn start(log: &Path) -> Result<Daemon, String> {
    serve::spawn(Config {
        jobs_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        log: LogTarget::File(log.to_owned()),
        ..Config::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))
}

fn stop(daemon: Daemon) {
    daemon.shutdown();
    daemon.wait();
}

/// Checks a reply against the batch generation of its kernel.
fn check_reply(r: &Reply, reference: &Reference, tally: &mut Tally) {
    let ok = match &reference.outputs[r.kernel][Tool::CgPlus as usize].text {
        Ok(text) => r.status == 200 && r.code.trim_end_matches('\n') == text.trim_end_matches('\n'),
        Err(_) => false,
    };
    tally.record(ok, r.status == 200 && !r.exact);
}

/// One client's pass: every kernel once, in `order`. A request that
/// fails on the socket counts as a reply with status 0.
fn client_pass(
    addr: SocketAddr,
    programs: &[Program],
    order: &[usize],
    client: usize,
) -> (Vec<Reply>, u64) {
    let t0 = Instant::now();
    let replies = order
        .iter()
        .map(|&k| {
            post_gen(addr, k, &programs[k].name, client).unwrap_or(Reply {
                kernel: k,
                status: 0,
                latency_ns: 0,
                code: String::new(),
                lines: 0,
                codegen_ns: 0,
                compile_ns: 0,
                exact: false,
            })
        })
        .collect();
    (replies, t0.elapsed().as_nanos() as u64)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the daemon cannot be started.
pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new().map_err(|e| format!("cannot create the log directory: {e}"))?;
    let mut tally = Tally::default();
    let (programs, build_s) = repeat_setup(table1_kernels);
    // Set-up: a fresh daemon on empty solver caches, primed with one
    // request per kernel. Repeated; all but the last daemon are stopped,
    // and joined only after the timing so no repeat pays for the last.
    let mut rep = 0usize;
    let mut started: Option<Result<(Daemon, Vec<Reply>), String>> = None;
    let mut retired = Vec::new();
    let (_, setup_s) = repeat_setup(|| {
        if let Some(Ok((d, _))) = started.take() {
            d.shutdown();
            retired.push(d);
        }
        omega::reset_sat_cache();
        rep += 1;
        started = Some(
            start(&scratch.0.join(format!("requests-{rep}.log"))).map(|d| {
                let order: Vec<usize> = (0..programs.len()).collect();
                let (prime, _) = client_pass(d.http_addr(), &programs, &order, 0);
                (d, prime)
            }),
        );
    });
    retired.into_iter().for_each(Daemon::wait);
    let (daemon, prime) = started.expect("set-up ran at least once")?;
    let addr = daemon.http_addr();
    out.fact("daemon_workers", nproc());
    out.fact("setup_reps", rep);

    // The batch reference, verified by executing both tools' programs.
    let batch = run_pass(&programs, false, Threads::Default, false);
    let reference = verify(&programs, &batch, &mut tally);
    drop(batch);
    for r in &prime {
        check_reply(r, &reference, &mut tally);
    }

    let mut rng = omega::arbitrary::Rng::new(args.seed);
    let clients = nproc().max(1);
    out.fact("clients", clients);
    let mut e2e = EndToEnd {
        setup_s,
        dyn_cost: TOOLS.map(|t| reference.dyn_cost(t)),
        lines: [0, reference.lines(Tool::Cloog)],
        ..EndToEnd::default()
    };
    let mut codegen_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut shed = 0u64;
    let serve_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    crate::stats::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(serve_seconds);
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        let orders: Vec<Vec<usize>> = (0..clients)
            .map(|_| shuffled(&mut rng, programs.len()))
            .collect();
        e2e.calibrate();
        let t0 = Instant::now();
        let passes: Vec<(Vec<Reply>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = orders
                .iter()
                .enumerate()
                .map(|(c, order)| {
                    let programs = &programs;
                    s.spawn(move || client_pass(addr, programs, order, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let served = passes
            .iter()
            .flat_map(|(r, _)| r)
            .filter(|r| r.status == 200)
            .count();
        e2e.requests_per_s
            .push(served as f64 / t0.elapsed().as_secs_f64());
        for (replies, pass_ns) in &passes {
            e2e.cgplus_pass_ms.push(ms(*pass_ns));
            e2e.cgplus_compile_ms
                .push(ms(replies.iter().map(|r| r.compile_ns).sum()));
            e2e.lines[0] = replies.iter().map(|r| r.lines).sum();
            for r in replies {
                check_reply(r, &reference, &mut tally);
                if r.status == 503 {
                    shed += 1;
                }
                if r.status == 200 {
                    e2e.request_ms.push(ms(r.latency_ns));
                    codegen_ms.push(ms(r.codegen_ns));
                    overhead_ms.push(ms(r.latency_ns.saturating_sub(r.codegen_ns + r.compile_ns)));
                }
            }
        }
        let mut cloog_ns = 0;
        for (p, want) in programs.iter().zip(&reference.outputs) {
            let (g, ns) = generate(Tool::Cloog, p, Threads::Default, None);
            cloog_ns += ns;
            check_one(&want[Tool::Cloog as usize], &g, &mut tally);
        }
        e2e.cloog_pass_ms.push(ms(cloog_ns));
    }
    out.fact("rounds", rounds);
    if args.trace {
        report_inputs("chill.build_ms", &[build_s * 1e3], out);
        out.metric("serve.codegen_ms_p50", median(&codegen_ms), "ms");
        out.metric("serve.overhead_ms_p50", median(&overhead_ms), "ms");
        out.metric("serve.shed", shed as f64, "count");
        // The scanner and solver split of the same kernels, generated in
        // this process at the daemon's warm cache state.
        let mut in_process = EndToEnd::default();
        layer_run(
            &programs,
            false,
            &reference,
            args.seconds / 2.0,
            &mut in_process,
            &mut tally,
            out,
        );
        e2e.report_per_layer(out);
    } else {
        e2e.tally = tally;
        e2e.report(out);
    }
    stop(daemon);
    drop(scratch);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(())
}
