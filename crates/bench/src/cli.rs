//! Command-line options shared by every `exp_*` binary.
//!
//! All sweep binaries accept the same flags:
//!
//! * `--threads N` — worker threads (`0` = all cores, the default);
//! * `--root-seed S` — root seed of every run's derived RNG stream
//!   (decimal or `0x`-prefixed hex);
//! * `--shard I/M` — run only cells whose global index ≡ I (mod M),
//!   for splitting a sweep across processes or machines;
//! * `--trace-out PATH` — run the sweep with observability tracing on
//!   and write every cell's trace as one Chrome trace-event JSON
//!   document (open with Perfetto / `chrome://tracing`).
//!
//! Because every cell's stream depends only on `(root seed, grid
//! index)`, any combination of `--threads` and `--shard` produces
//! bit-identical per-cell results; tracing is digest-neutral, so
//! `--trace-out` cannot change them either.
//!
//! The two traffic sweeps (`exp_overload`, `exp_layers`) add `--smoke`
//! and refuse `--shard` and `--trace-out` ([`parse_traffic_sweep_args`]),
//! and share their overload control ([`overload_cfg`]) and shed-policy
//! axis ([`SHED_POLICIES`], [`policy_label`]).

use rda_core::{mb, BreakerConfig, OverloadConfig, ShedPolicy};
use rda_sim::runner::{RunnerOptions, Shard};
use std::path::PathBuf;

/// Usage text shared by the binaries.
pub const SWEEP_USAGE: &str = "options:
  --threads N       worker threads (0 = all cores; default 0)
  --root-seed S     root seed, decimal or 0x-hex (default: built-in)
  --shard I/M       run only cells with index ≡ I (mod M)
  --trace-out PATH  record traces; write Chrome trace-event JSON to PATH
  --help            print this help";

/// Everything the shared sweep CLI can express.
#[derive(Debug, Clone, Default)]
pub struct SweepArgs {
    /// How to execute the sweep.
    pub runner: RunnerOptions,
    /// When set, enable tracing and export the sweep's traces here.
    pub trace_out: Option<PathBuf>,
}

impl SweepArgs {
    /// Whether tracing should be enabled for this invocation.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }
}

/// Parse sweep flags from an argument iterator (binary name already
/// stripped). Returns `Err` with a message on bad input; `--help` is
/// reported as `Err("help")` for the caller to print usage and exit 0.
pub fn parse_sweep_args<I>(args: I) -> Result<SweepArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = SweepArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value\n{SWEEP_USAGE}"))
        };
        match arg.as_str() {
            "--threads" => {
                let v = value("--threads")?;
                parsed.runner.threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value '{v}'"))?;
            }
            "--root-seed" => {
                let v = value("--root-seed")?;
                parsed.runner.root_seed = parse_seed(&v)?;
            }
            "--shard" => {
                let v = value("--shard")?;
                parsed.runner.shard = Some(Shard::parse(&v)?);
            }
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(value("--trace-out")?));
            }
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown option '{other}'\n{SWEEP_USAGE}")),
        }
    }
    Ok(parsed)
}

/// Parse sweep flags from the process environment, printing usage and
/// exiting on `--help` or errors.
pub fn sweep_args_from_env() -> SweepArgs {
    or_exit(parse_sweep_args(std::env::args().skip(1)), SWEEP_USAGE)
}

/// The parsed flags; on `--help`, `usage` printed and exit 0; on an
/// error, its message printed and exit 2.
fn or_exit<T>(parsed: Result<T, String>, usage: &str) -> T {
    match parsed {
        Ok(parsed) => parsed,
        Err(msg) if msg == "help" => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Usage text of the traffic sweeps.
pub const TRAFFIC_USAGE: &str = "options:
  --threads N       worker threads (0 = all cores; default 0)
  --root-seed S     root seed, decimal or 0x-hex (default: built-in)
  --smoke           small fast grid (CI digest gate)
  --help            print this help";

/// Parse a traffic sweep's flags (binary name already stripped): the
/// shared sweep flags plus `--smoke`, a small fast grid (the CI digest
/// gate). Returns the runner options and whether `--smoke` was given.
/// `--shard` and `--trace-out` are refused: `bin` runs and digests its
/// whole grid, and does not collect its cells' trace reports. `--help`
/// is reported as `Err("help")`, as by [`parse_sweep_args`], and a bad
/// flag's message ends with [`TRAFFIC_USAGE`].
pub fn parse_traffic_sweep_args<I>(bin: &str, args: I) -> Result<(RunnerOptions, bool), String>
where
    I: IntoIterator<Item = String>,
{
    let mut smoke = false;
    let rest: Vec<String> = args
        .into_iter()
        .filter(|a| {
            let flag = a == "--smoke";
            smoke |= flag;
            !flag
        })
        .collect();
    let args = parse_sweep_args(rest).map_err(|e| e.replace(SWEEP_USAGE, TRAFFIC_USAGE))?;
    if args.runner.shard.is_some() {
        return Err(format!(
            "--shard is not supported by {bin} (it runs and digests its whole grid)"
        ));
    }
    if args.trace_out.is_some() {
        return Err(format!(
            "--trace-out is not supported by {bin} (it does not collect its cells' trace reports)"
        ));
    }
    Ok((args.runner, smoke))
}

/// [`parse_traffic_sweep_args`] over the process environment, printing
/// usage and exiting on `--help` (0) or errors (2).
pub fn traffic_sweep_args_from_env(bin: &str) -> (RunnerOptions, bool) {
    or_exit(
        parse_traffic_sweep_args(bin, std::env::args().skip(1)),
        TRAFFIC_USAGE,
    )
}

/// The traffic sweeps' shed-policy axis, in table order.
pub const SHED_POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::RejectNewest,
    ShedPolicy::RejectOldest,
    ShedPolicy::DegradeToOverflow,
];

/// A shed policy's label in the traffic sweeps' tables.
pub fn policy_label(p: ShedPolicy) -> &'static str {
    match p {
        ShedPolicy::RejectNewest => "reject_newest",
        ShedPolicy::RejectOldest => "reject_oldest",
        ShedPolicy::DegradeToOverflow => "degrade",
    }
}

/// The overload control both traffic sweeps run under `shed_policy`:
/// a 16-deep waitlist, ~21 ms deadlines, and a breaker that trips after
/// 4 ticks at 14 MB and sheds demands of 1 MB and up.
pub fn overload_cfg(shed_policy: ShedPolicy) -> OverloadConfig {
    OverloadConfig {
        waitlist_cap: 16,
        shed_policy,
        deadline_cycles: Some(40_000_000), // ~21 ms at 1.9 GHz
        breaker: Some(BreakerConfig {
            high_water: mb(14.0),
            low_water: mb(8.0),
            trip_after: 4,
            recover_after: 4,
            shed_min_demand: mb(1.0),
        }),
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --root-seed value '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_sim::runner::DEFAULT_ROOT_SEED;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        parse_sweep_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.runner.threads, 0);
        assert_eq!(a.runner.root_seed, DEFAULT_ROOT_SEED);
        assert!(a.runner.shard.is_none());
        assert!(a.trace_out.is_none());
        assert!(!a.tracing());
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--threads", "8", "--root-seed", "0xDEAD", "--shard", "1/4", "--trace-out",
            "/tmp/t.json",
        ])
        .unwrap();
        assert_eq!(a.runner.threads, 8);
        assert_eq!(a.runner.root_seed, 0xDEAD);
        assert_eq!(a.runner.shard, Some(Shard { index: 1, count: 4 }));
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
        assert!(a.tracing());
    }

    #[test]
    fn decimal_seed_parses() {
        assert_eq!(parse(&["--root-seed", "42"]).unwrap().runner.root_seed, 42);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--shard", "4/4"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    fn parse_traffic(args: &[&str]) -> Result<(RunnerOptions, bool), String> {
        parse_traffic_sweep_args("exp_overload", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn traffic_sweep_takes_smoke_among_shared_flags() {
        let (runner, smoke) = parse_traffic(&["--threads", "8", "--smoke"]).unwrap();
        assert_eq!(runner.threads, 8);
        assert!(runner.shard.is_none());
        assert!(smoke);
        let (runner, smoke) = parse_traffic(&["--root-seed", "42"]).unwrap();
        assert_eq!(runner.root_seed, 42);
        assert!(!smoke);
        assert_eq!(parse_traffic(&["--smoke", "--help"]).unwrap_err(), "help");
        let err = parse_traffic(&["--bogus"]).unwrap_err();
        assert!(err.ends_with(TRAFFIC_USAGE), "{err}");
    }

    #[test]
    fn traffic_sweep_refuses_shard() {
        let err = parse_traffic(&["--smoke", "--shard", "0/2"]).unwrap_err();
        let want = "--shard is not supported by exp_overload";
        assert!(err.starts_with(want), "{err}");
    }

    #[test]
    fn traffic_sweep_refuses_trace_out() {
        let err = parse_traffic(&["--trace-out", "t.json"]).unwrap_err();
        let want = "--trace-out is not supported by exp_overload";
        assert!(err.starts_with(want), "{err}");
    }
}
