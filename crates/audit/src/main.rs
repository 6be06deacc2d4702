//! The `aaa-audit` binary: run the full static-analysis pass over the
//! workspace.
//!
//! ```text
//! cargo run -p aaa-audit                     # audit; exit 1 on findings,
//!                                            # exit 2 on stale allowlist
//! cargo run -p aaa-audit -- --fix-allowlist  # snapshot today's findings
//!                                            # as intentional exceptions
//! cargo run -p aaa-audit -- --fix-pub-api    # regenerate the aaa-mom
//!                                            # public-API baseline
//! cargo run -p aaa-audit -- --root <dir>     # audit another tree
//! cargo run -p aaa-audit -- --metrics        # also print the Prometheus
//!                                            # rendering of the findings
//! cargo run -p aaa-audit -- --sarif out.sarif # write SARIF 2.1.0 for CI
//!                                             # diff annotation
//! cargo run -p aaa-audit -- --explain RULE   # print the long-form doc
//!                                            # for one rule (or `all`)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use aaa_audit::{
    audit_workspace, fix_allowlist, fix_pub_api, record_model_states, rules, sarif, Config,
};
use aaa_obs::{Meter, Registry};

fn usage() -> ! {
    eprintln!(
        "usage: aaa-audit [--root DIR] [--fix-allowlist] [--fix-pub-api] [--metrics] \
         [--sarif FILE] [--quiet] [--explain RULE|all]\n\
         exit codes: 0 clean, 1 findings, 2 stale allowlist, 3 usage/io error"
    );
    std::process::exit(3)
}

/// `--explain RULE`: print the long-form doc for one rule, or every rule
/// when `RULE` is `all`. The same text ships as SARIF `help` so CI
/// annotations and the CLI agree.
fn explain(rule: &str) -> ExitCode {
    if rule == "all" {
        for (i, r) in rules::ALL_RULES.iter().enumerate() {
            if i > 0 {
                println!();
            }
            println!("{r}\n{}", rules::explain(r));
        }
        return ExitCode::SUCCESS;
    }
    if rules::ALL_RULES.contains(&rule) {
        println!("{}", rules::explain(rule));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "aaa-audit: unknown rule `{rule}` — known rules: {}",
            rules::ALL_RULES.join(", ")
        );
        ExitCode::from(3)
    }
}

fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(r) = explicit {
        return r;
    }
    // When run via `cargo run -p aaa-audit`, the manifest dir is
    // `<root>/crates/audit`.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut fix = false;
    let mut fix_api = false;
    let mut metrics = false;
    let mut quiet = false;
    let mut sarif_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--fix-allowlist" => fix = true,
            "--fix-pub-api" => fix_api = true,
            "--metrics" => metrics = true,
            "--sarif" => match args.next() {
                Some(path) => sarif_out = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--quiet" | "-q" => quiet = true,
            "--explain" => match args.next() {
                Some(rule) => return explain(&rule),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let root = workspace_root(root);
    let config = Config::for_aaa_workspace();

    if fix_api {
        return match fix_pub_api(&root, &config) {
            Ok(n) => {
                println!("{} regenerated: {n} pub item(s)", config.api_golden);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("aaa-audit: {e}");
                ExitCode::from(3)
            }
        };
    }

    if fix {
        return match fix_allowlist(&root, &config) {
            Ok(report) => {
                println!(
                    "allowlist refreshed: {} intentional exception(s) across {} rule(s)",
                    report.suppressed_allowlist.len(),
                    report
                        .suppressed_allowlist
                        .iter()
                        .map(|f| f.rule)
                        .collect::<std::collections::BTreeSet<_>>()
                        .len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("aaa-audit: {e}");
                ExitCode::from(3)
            }
        };
    }

    let report = match audit_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aaa-audit: {e}");
            return ExitCode::from(3);
        }
    };

    // Export findings through the observability layer. The wall-time and
    // model-coverage gauges only render under `--metrics` — the model
    // runs cost a few seconds and the timings are inherently unstable, so
    // the default (quiet, deterministic) path skips both.
    let registry = Registry::new();
    let meter = Meter::new(&registry);
    report.record_metrics(&meter);
    if metrics {
        report.record_timings(&meter);
        record_model_states(&meter);
    }

    // SARIF export happens before the exit-code decision so CI can upload
    // the artifact even when the job fails on findings.
    if let Some(path) = &sarif_out {
        if let Err(e) = std::fs::write(path, sarif::render(&report.findings)) {
            eprintln!("aaa-audit: writing {}: {e}", path.display());
            return ExitCode::from(3);
        }
    }

    for f in &report.findings {
        println!("{f}");
    }
    for e in &report.stale_allowlist {
        println!("stale allowlist entry (no matching finding): {e}");
    }
    if !quiet {
        let per_rule = report.per_rule();
        eprintln!(
            "aaa-audit: scanned {} files — {} finding(s), {} allowlisted, {} inline-allowed, \
             {} stale allowlist entr(ies)",
            report.files_scanned,
            report.findings.len(),
            report.suppressed_allowlist.len(),
            report.suppressed_inline.len(),
            report.stale_allowlist.len(),
        );
        for rule in rules::ALL_RULES {
            let active = per_rule.get(rule).copied().unwrap_or(0);
            let allowed = report
                .suppressed_allowlist
                .iter()
                .filter(|f| f.rule == *rule)
                .count();
            eprintln!("  {rule:<18} active {active:>3}   allowlisted {allowed:>3}");
        }
    }
    if metrics {
        print!("{}", registry.snapshot().render_prometheus());
    }

    if !report.findings.is_empty() {
        ExitCode::from(1)
    } else if !report.stale_allowlist.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
