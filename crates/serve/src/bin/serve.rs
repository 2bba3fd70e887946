//! `serve` — run the Hauberk campaign daemon.
//!
//! ```text
//! serve [--addr 127.0.0.1:7070] [--workers N] [--queue N]
//!       [--state-dir DIR] [--max-body BYTES] [--read-timeout-ms MS]
//!       [--client-quota N] [--cache-entries N] [--cache-bytes BYTES]
//! ```
//!
//! `--client-quota N` caps concurrent non-terminal jobs per `client` value.
//! Every flag takes a value; anything else is refused with the usage text.
//! To split one campaign across machines, submit its shards to independent
//! daemons and merge their journals (DESIGN §18).
//!
//! SIGINT/SIGTERM drain in-flight jobs and flush journals before exit;
//! queued-but-unstarted jobs are canceled (and, with `--state-dir`,
//! re-queued by the next start).

use hauberk_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    // libc isn't in the dependency tree (offline workspace); `signal(2)` is
    // enough here — the handler only flips an AtomicBool.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--state-dir DIR] [--max-body BYTES] [--read-timeout-ms MS] \
         [--client-quota N] [--cache-entries N] [--cache-bytes BYTES]"
    );
    std::process::exit(2);
}

/// Every flag the daemon understands; each takes exactly one value.
const FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue",
    "--state-dir",
    "--max-body",
    "--read-timeout-ms",
    "--client-quota",
    "--cache-entries",
    "--cache-bytes",
];

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match arg_value(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("serve: bad value for {name}: `{v}`");
            usage()
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if let Some(pair) = args
        .chunks(2)
        .find(|p| p.len() < 2 || !FLAGS.contains(&p[0].as_str()))
    {
        eprintln!("serve: unknown flag or missing value: `{}`", pair[0]);
        usage();
    }
    let mut cfg = ServerConfig {
        addr: arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        ..ServerConfig::default()
    };
    cfg.workers = parsed(&args, "--workers", cfg.workers);
    cfg.queue_capacity = parsed(&args, "--queue", cfg.queue_capacity);
    cfg.max_body_bytes = parsed(&args, "--max-body", cfg.max_body_bytes);
    cfg.read_timeout = Duration::from_millis(parsed(
        &args,
        "--read-timeout-ms",
        cfg.read_timeout.as_millis() as u64,
    ));
    cfg.state_dir = arg_value(&args, "--state-dir").map(Into::into);
    cfg.client_quota = parsed(&args, "--client-quota", cfg.client_quota);
    cfg.cache_max_entries = parsed(&args, "--cache-entries", cfg.cache_max_entries);
    cfg.cache_max_bytes = parsed(&args, "--cache-bytes", cfg.cache_max_bytes);

    install_signal_handlers();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("serve: listening on http://{addr}"),
        Err(e) => eprintln!("serve: listening (addr unavailable: {e})"),
    }

    // Bridge the async-signal flag into the server's shutdown path.
    let trigger = server.shutdown_flag();
    std::thread::spawn(move || {
        while !STOP.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("serve: shutdown requested, draining in-flight jobs");
        trigger();
    });

    server.run();
    eprintln!("serve: drained, exiting");
}
