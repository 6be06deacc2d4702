//! `perf`: the repo's layered benchmark. See `PERF.md` next to this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perf [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]
//! perf compare A.jsonl [B.jsonl] [--bench BENCHMARK.json]
//! ```
//!
//! One invocation measures one workload and prints, as the last line of
//! its standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Everything else (environment,
//! per-window extremes, the budget) goes to standard error. With several
//! `--workload`s (or none, meaning all six) it re-executes itself once per
//! workload, so peak memory is per workload.

mod compare;
mod hist;
mod inline;
mod json;
mod oracle;
mod replay;
mod report;
mod rng;
mod runtime;
mod stat;
mod sys;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use report::RunSpec;
use workload::{Substrate, Workload, WORKLOADS};

/// The harness's error type: a message for the operator.
pub type Res<T> = Result<T, String>;

/// `map_err` adapter: prefixes a layer's error with what was being done.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

const USAGE: &str = "\
usage: perf [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]
       perf compare A.jsonl [B.jsonl] [--bench BENCHMARK.json]

workloads: bus_ring bus_many flat_wide flat_mesh durable_fanout tcp_ring
  --seed N      seed of every random input (default 1)
  --seconds S   measuring time of the run (default 12)
  --trace [1]   report the per-layer metrics and the budget instead of the
                end-to-end metrics
  --smoke       0.2 s windows and reduced sizes (CI)
  --out PATH    append this run's result to PATH, one JSON line per run";

/// Default `--seconds`; `BENCHMARK.json` names the same number.
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug, PartialEq)]
enum Cli {
    Run {
        workloads: Vec<String>,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
        out: Option<PathBuf>,
    },
    Compare {
        a: PathBuf,
        b: Option<PathBuf>,
        bench: Option<PathBuf>,
    },
    /// Internal: what `rerun_pinned` runs on each processor.
    SyncProbe { dir: PathBuf },
}

fn parse_cli(args: &[String]) -> Res<Cli> {
    if let [probe, dir] = args {
        if probe == SYNC_PROBE {
            return Ok(Cli::SyncProbe { dir: dir.into() });
        }
    }
    if args.first().map(String::as_str) == Some("compare") {
        let mut files = Vec::new();
        let mut bench = None;
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--bench" => bench = Some(PathBuf::from(it.next().ok_or("--bench needs a path")?)),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                file => files.push(PathBuf::from(file)),
            }
        }
        let mut files = files.into_iter();
        let a = files.next().ok_or("compare needs a result file")?;
        let b = files.next();
        if files.next().is_some() {
            return Err("compare takes at most two result files".into());
        }
        return Ok(Cli::Compare { a, b, bench });
    }
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut trace, mut smoke, mut out) =
        (1u64, DEFAULT_SECONDS, false, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if Workload::by_name(name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                workloads.push(name.clone());
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    }
    Ok(Cli::Run {
        workloads,
        seed,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// First line of a command's output, or "unknown".
fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Artefacts and scratch space live under the package's own `target/`,
/// inside the checkout and never in the repository root or `/tmp` (a
/// tmpfs would make `fdatasync` free).
fn perf_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perf")
}

fn append_line(path: &Path, line: &str) -> Res<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Measures one workload in this process and prints its result line.
fn run_one(w: &Workload, spec: &RunSpec, out: Option<&Path>) -> Res<bool> {
    std::fs::create_dir_all(&spec.perf_dir)
        .map_err(|e| format!("create {}: {e}", spec.perf_dir.display()))?;
    let outcome = report::run(w, spec)?;
    let commit = tool_version("git", &["rev-parse", "HEAD"]);
    let rustc = tool_version("rustc", &["--version"]);
    eprintln!("perf: commit={commit} rustc={rustc}");
    for note in &outcome.notes {
        eprintln!("perf: {note}");
    }
    for m in &outcome.metrics {
        eprintln!(
            "perf: {:<36} {:>16.6} {:<6} (median {:.6}, min {:.6}, max {:.6}, n={})",
            m.name,
            m.value,
            m.unit,
            m.stat.median,
            m.stat.min,
            m.stat.max,
            m.stat.samples.len()
        );
    }
    eprintln!("perf: tally {:?}", outcome.tally);
    for v in &outcome.violations {
        eprintln!("perf: VIOLATION {v}");
    }
    let result = report::result_line(&outcome);
    if let Some(path) = out {
        let record = Value::obj([
            ("workload", Value::str(w.name)),
            ("seed", Value::Int(spec.seed)),
            ("trace", Value::Int(u64::from(spec.trace))),
            ("seconds", Value::Num(spec.seconds)),
            ("smoke", Value::Bool(spec.smoke)),
            ("nproc", Value::Int(sys::nproc() as u64)),
            ("shards", Value::Int(report::shard_count() as u64)),
            ("commit", Value::str(commit)),
            ("rustc", Value::str(rustc)),
            (
                "detail",
                Value::obj(
                    outcome
                        .metrics
                        .iter()
                        .map(|m| (m.name, m.stat.to_json(m.value, m.unit))),
                ),
            ),
            ("result", result.clone()),
        ]);
        append_line(path, &record.render())?;
    }
    println!("{}", result.render());
    Ok(result.get("correct") == Some(&Value::Bool(true)))
}

/// Set in the environment of a run that `taskset` already pinned.
const PINNED: &str = "PERF_PINNED";
/// First argument of the internal invocation that times `fdatasync`.
const SYNC_PROBE: &str = "sync-probe";
/// At most this many processors are probed.
const PROBED_CPUS: usize = 8;

/// The processor from which a synced append is cheapest, by running
/// `perf sync-probe` pinned to each allowed one in turn; the first one if
/// the probe does not work.
///
/// Why: the durable workload waits for about three `fdatasync`s per
/// delivery, and each ends with the block device's completion interrupt,
/// which the kernel delivers to one particular processor. A waiter pinned
/// elsewhere pays cross-processor wake-ups on top (the cost that
/// `rerun_pinned` describes, and as unsteady). On the sandbox the
/// interrupt lands on CPU 1: sets of ten runs pinned to CPU 0 read 773 us
/// per inline delivery and spread by 4-17 %, pinned to CPU 1 458 us and
/// 4-8 %.
fn sync_cpu(exe: &Path, cpus: &[u32]) -> u32 {
    let dir = perf_dir();
    let probe = |cpu: u32| -> Option<f64> {
        let out = Command::new("taskset")
            .args(["-c", &cpu.to_string()])
            .arg(exe)
            .arg(SYNC_PROBE)
            .arg(&dir)
            .output()
            .ok()?;
        String::from_utf8(out.stdout).ok()?.trim().parse().ok()
    };
    let mut best = (cpus[0], f64::INFINITY);
    for &cpu in cpus.iter().take(PROBED_CPUS) {
        match probe(cpu) {
            Some(us) => {
                eprintln!("perf: append + fdatasync from cpu {cpu}: {us:.1} us");
                if us < best.1 {
                    best = (cpu, us);
                }
            }
            None => eprintln!("perf: the sync probe failed on cpu {cpu}"),
        }
    }
    best.0
}

/// Runs this same invocation again as a child pinned to one processor, if
/// it is not pinned yet, may use several processors, and `taskset` exists.
/// Returns the child's verdict, or `None` to measure in this process.
///
/// Why: on the sandbox (a 2-vCPU KVM guest) waking a thread on a *halted*
/// virtual CPU costs about 5 us in one state of the host and about 45 us in
/// another, and the machine changes state on its own. Every `Mom::send` is
/// such a wake-up, so one commit measured 596k and 381k msgs/s on
/// `bus_ring`, and 40 us and 215 us round trips on `tcp_ring`, in two sets
/// of ten runs an hour apart. With every thread on one processor a wake-up
/// never has to rouse another one; the closed loop's generator and shard
/// alternate anyway, so throughput in the fast state is unchanged
/// (measured, four pairs of runs: `bus_ring` 594-640k unpinned, 599-635k
/// pinned). The price is that the benchmark says nothing about parallel
/// speed-up; with one shard it did not before either.
///
/// The processor is the first allowed one, except for a workload that
/// waits for the disk: see `sync_cpu`.
fn rerun_pinned(w: &Workload, args: &[String]) -> Option<Res<bool>> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let cpus = sys::allowed_cpus().filter(|cpus| cpus.len() > 1)?;
    let exe = std::env::current_exe().ok()?;
    let cpu = if w.substrate == Substrate::ThreadedDurable {
        sync_cpu(&exe, &cpus)
    } else {
        cpus[0]
    };
    let status = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(args)
        .env(PINNED, "1")
        .status();
    match status {
        Ok(status) => Some(Ok(status.success())),
        Err(e) => {
            eprintln!("perf: taskset is not usable ({e}); measuring unpinned");
            None
        }
    }
}

/// Re-executes this program once per workload, passing the flags along.
fn run_each(workloads: &[String], args: &[String]) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Everything but the --workload flags.
    let mut shared = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            shared.push(arg.clone());
        }
    }
    let mut all_ok = true;
    for name in workloads {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(&shared)
            .status()
            .map_err(|e| format!("re-execute for {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn read(path: &Path) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn run_compare(a: &Path, b: Option<&Path>, bench: Option<&Path>) -> Res<bool> {
    let default_bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = Value::parse(&read(bench.unwrap_or(&default_bench))?)?;
    let runs_a = compare::parse_runs(&read(a)?)?;
    let runs_b = b.map(|p| compare::parse_runs(&read(p)?)).transpose()?;
    let (table, bad) = compare::compare(&bench, &runs_a, runs_b.as_ref())?;
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match cli {
        Cli::Compare { a, b, bench } => run_compare(&a, b.as_deref(), bench.as_deref()),
        Cli::SyncProbe { dir } => sys::sync_probe_us(&dir)
            .map(|us| {
                println!("{us}");
                true
            })
            .map_err(|e| format!("sync probe in {}: {e}", dir.display())),
        Cli::Run {
            workloads,
            seed,
            seconds,
            trace,
            smoke,
            out,
        } => match (workloads.as_slice(), Workload::by_name(&workloads[0])) {
            ([_], Some(w)) => {
                if let Some(done) = rerun_pinned(&w, &args) {
                    return verdict(done);
                }
                let spec = RunSpec {
                    seed,
                    seconds,
                    smoke,
                    trace,
                    perf_dir: perf_dir(),
                };
                run_one(&w, &spec, out.as_deref())
            }
            _ => run_each(&workloads, &args),
        },
    };
    verdict(done)
}

fn verdict(done: Res<bool>) -> ExitCode {
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Res<Cli> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let got = cli(&[
            "--workload",
            "flat_mesh",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            got,
            Cli::Run {
                workloads: vec!["flat_mesh".into()],
                seed: 7,
                seconds: 10.0,
                trace: false,
                smoke: false,
                out: None,
            }
        );
        let Cli::Run { trace, .. } = cli(&["--workload", "bus_ring", "--trace", "1"]).unwrap()
        else {
            panic!("expected a run");
        };
        assert!(trace);
    }

    #[test]
    fn bare_trace_and_defaults() {
        let Cli::Run {
            workloads,
            seed,
            seconds,
            trace,
            smoke,
            out,
        } = cli(&["--trace", "--smoke", "--out", "x.jsonl"]).unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!(workloads.len(), 6, "no --workload means all of them");
        assert_eq!((seed, seconds), (1, DEFAULT_SECONDS));
        assert!(trace && smoke);
        assert_eq!(out, Some(PathBuf::from("x.jsonl")));
    }

    #[test]
    fn unknown_flags_and_workloads_are_usage_errors() {
        for bad in [
            &["--bogus"][..],
            &["--workload", "nope"],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["extra"],
            &["compare"],
            &["compare", "a", "b", "c"],
            &["compare", "a", "--what"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            cli(&["compare", "a.jsonl", "--bench", "B.json"]).unwrap(),
            Cli::Compare {
                a: "a.jsonl".into(),
                b: None,
                bench: Some("B.json".into()),
            }
        );
    }
}
