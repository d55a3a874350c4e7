//! The shared experiment CLI flag grammar.
//!
//! Every binary accepts the same flag shapes — repeatable spec flags
//! (`--policy`, `--fabric`, `--traffic`), last-wins count flags
//! (`--jobs`, `--devices`, …) and a path flag (`--checkpoint`) — all in
//! both `--flag value` and `--flag=value` forms, with unknown arguments
//! ignored so the flags compose with whatever else a binary accepts. One
//! private scanner (`flag_values`) implements the grammar; every public
//! parser is a thin typed wrapper over it.

use std::path::PathBuf;

use cgra::FabricSpec;
use transrec::{CampaignOptions, TrafficSpec};
use uaware::PolicySpec;

use crate::experiments::ExperimentContext;

/// Every value of the repeatable `--<flag> <v>` / `--<flag>=<v>` forms in
/// `args`, in order. Other arguments are ignored; an empty vec means the
/// flag was absent. A trailing `--<flag>` with no value errors with
/// `hint` appended.
fn flag_values(args: &[String], flag: &str, hint: &str) -> Result<Vec<String>, String> {
    let prefix = format!("{flag}=");
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            i += 1;
            match args.get(i) {
                Some(v) => values.push(v.clone()),
                None => return Err(format!("{flag} requires a value ({hint})")),
            }
        } else if let Some(v) = args[i].strip_prefix(&prefix) {
            values.push(v.to_string());
        }
        i += 1;
    }
    Ok(values)
}

/// The shared `--<flag> <n>` / `--<flag>=<n>` count parser behind
/// [`parse_jobs_flag`], [`parse_devices_flag`] and friends: every
/// occurrence must parse, the last wins, other arguments are ignored.
fn parse_count_flag(args: &[String], flag: &str, hint: &str) -> Result<Option<usize>, String> {
    let mut count = None;
    for value in flag_values(args, flag, hint)? {
        count = Some(
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))?,
        );
    }
    Ok(count)
}

/// Applies the shared experiment CLI flags from the process arguments to
/// `ctx`:
///
/// * repeatable `--policy <spec>` / `--policy=<spec>` flags replace
///   [`ExperimentContext::policies`] wholesale when at least one is given
///   (the first spec becomes the figure's "proposed" series), parsed with
///   [`PolicySpec`]'s [`FromStr`](std::str::FromStr) grammar, e.g.
///   `--policy rotation:snake@per-load --policy random:7`;
/// * repeatable `--fabric <spec>` / `--fabric=<spec>` flags replace
///   [`ExperimentContext::fabrics`] wholesale when at least one is given,
///   parsed with [`FabricSpec`]'s [`FromStr`](std::str::FromStr) grammar
///   (DESIGN.md §14), e.g. `--fabric 4x8:het-checker --fabric be+bw-2` —
///   the figures then run on those layouts instead of their hard-coded
///   defaults, keyed by the canonical spec string;
/// * `--jobs <n>` / `--jobs=<n>` sets [`ExperimentContext::jobs`], the
///   sweep worker count (`0` = all cores, `1` = sequential; results are
///   byte-identical for every value);
/// * `--metrics` (no value) sets
///   [`ExperimentContext::collect_metrics`]: sweeps and campaigns fold
///   the flight recorder's counter registry into the process-global sink
///   so a binary can emit `results/metrics.json` (DESIGN.md §16).
///
/// Unknown arguments are ignored so the flags compose with whatever else a
/// binary accepts.
///
/// # Errors
///
/// Returns a description of the first malformed flag (the binaries report
/// it and exit non-zero).
pub fn apply_cli_flags(ctx: &mut ExperimentContext) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = parse_policy_flags(&args).map_err(|e| e.to_string())?;
    if !specs.is_empty() {
        ctx.policies = specs;
    }
    let fabrics = parse_fabric_flags(&args)?;
    if !fabrics.is_empty() {
        ctx.fabrics = fabrics;
    }
    if let Some(jobs) = parse_jobs_flag(&args)? {
        ctx.jobs = jobs;
    }
    if parse_metrics_flag(&args) {
        ctx.collect_metrics = true;
    }
    Ok(())
}

/// `true` when the valueless `--metrics` flag is present in `args` — the
/// opt-in for metric collection ([`ExperimentContext::collect_metrics`]).
/// Collection is off by default: nothing fires per decision, but a
/// collected session call takes its tally and publishes what it gained as
/// it returns, which an uncollected one skips (DESIGN.md §16).
pub fn parse_metrics_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--metrics")
}

/// Extracts every `--fabric <spec>` / `--fabric=<spec>` occurrence from
/// `args`, in order, parsed with [`FabricSpec`]'s
/// [`FromStr`](std::str::FromStr) grammar (e.g. `--fabric 4x8:het-checker
/// --fabric be+bw-2`) and checked to build a valid fabric. Other arguments
/// are ignored; an empty vec means the flag was absent.
///
/// # Errors
///
/// Returns the parse (or build) error of the first malformed spec, or an
/// error for a trailing `--fabric` with no value.
pub fn parse_fabric_flags(args: &[String]) -> Result<Vec<FabricSpec>, String> {
    flag_values(args, "--fabric", "e.g. --fabric 4x8:het-checker")?
        .into_iter()
        .map(|value| {
            let spec = value.parse::<FabricSpec>().map_err(|e| e.to_string())?;
            spec.build().map_err(|e| format!("--fabric {value}: {e}"))?;
            Ok(spec)
        })
        .collect()
}

/// Extracts every `--policy <spec>` / `--policy=<spec>` occurrence from
/// `args`, in order. Other arguments are ignored. This is the single parser
/// behind [`apply_cli_flags`] and the `diag` binary.
///
/// # Errors
///
/// Returns the parse error of the first malformed spec, or an error for a
/// trailing `--policy` with no value.
pub fn parse_policy_flags(args: &[String]) -> Result<Vec<PolicySpec>, uaware::ParseSpecError> {
    flag_values(args, "--policy", "e.g. --policy rotation:snake@per-load")
        .map_err(uaware::ParseSpecError::new)?
        .into_iter()
        .map(|value| value.parse::<PolicySpec>())
        .collect()
}

/// Extracts every `--traffic <spec>` / `--traffic=<spec>` occurrence from
/// `args`, in order, parsed with [`TrafficSpec`]'s
/// [`FromStr`](std::str::FromStr) grammar (e.g. `--traffic
/// diurnal@rph-6000+swing-80 --traffic heavy`). Other arguments are
/// ignored; an empty vec means the flag was absent.
///
/// # Errors
///
/// Returns the parse error of the first malformed spec, or an error for a
/// trailing `--traffic` with no value.
pub fn parse_traffic_flags(args: &[String]) -> Result<Vec<TrafficSpec>, String> {
    flag_values(args, "--traffic", "e.g. --traffic diurnal@rph-6000+swing-80")?
        .into_iter()
        .map(|value| value.parse::<TrafficSpec>())
        .collect()
}

/// Extracts the last `--jobs <n>` / `--jobs=<n>` occurrence from `args`
/// (`None` when the flag is absent). Other arguments are ignored.
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing `--jobs`
/// with no value.
pub fn parse_jobs_flag(args: &[String]) -> Result<Option<usize>, String> {
    parse_count_flag(args, "--jobs", "0 = all cores")
}

/// Extracts the last `--devices <n>` / `--devices=<n>` occurrence from
/// `args` (`None` when the flag is absent) — the fleet-size knob of the
/// `fig_lifetime` binary.
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing `--devices`
/// with no value.
pub fn parse_devices_flag(args: &[String]) -> Result<Option<usize>, String> {
    parse_count_flag(args, "--devices", "device instances per policy")
}

/// Extracts the last `--lanes <n>` / `--lanes=<n>` occurrence from `args`
/// (`None` when the flag is absent) — how many distinct workload seeds the
/// `fig_lifetime` fleet is drawn from (DESIGN.md §12).
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing `--lanes`
/// with no value.
pub fn parse_lanes_flag(args: &[String]) -> Result<Option<usize>, String> {
    parse_count_flag(args, "--lanes", "distinct workload-seed lanes")
}

/// Extracts the last `--shard <n>` / `--shard=<n>` occurrence from `args`
/// (`None` when the flag is absent) — the fleet campaign's streaming shard
/// size. Never changes results, only memory and checkpoint granularity.
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing `--shard`
/// with no value.
pub fn parse_shard_flag(args: &[String]) -> Result<Option<usize>, String> {
    parse_count_flag(args, "--shard", "devices per streaming shard")
}

/// Extracts the last `--horizon-days <n>` / `--horizon-days=<n>`
/// occurrence from `args` (`None` when the flag is absent) — the serving
/// horizon of the `fleet_serve` binary (DESIGN.md §13).
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing
/// `--horizon-days` with no value.
pub fn parse_horizon_days_flag(args: &[String]) -> Result<Option<usize>, String> {
    parse_count_flag(args, "--horizon-days", "serving days")
}

/// Parses the campaign-control flags of the `fig_lifetime` and
/// `fleet_serve` binaries from `args` into [`CampaignOptions`]: the last
/// `--checkpoint <path>` is where the campaign persists (and resumes) its
/// progress, `--checkpoint-every <n>` sets the shards per checkpointed
/// wave, `--stop-after <n>` pauses after that many shards (the CI resume
/// leg's kill stand-in), and `--metrics` collects the metrics registry.
///
/// # Errors
///
/// Returns a description for a malformed count or a trailing flag with no
/// value.
pub fn parse_campaign_flags(args: &[String]) -> Result<CampaignOptions, String> {
    let checkpoint = flag_values(args, "--checkpoint", "a file path")?.into_iter().next_back();
    Ok(CampaignOptions {
        checkpoint: checkpoint.map(PathBuf::from),
        checkpoint_every_shards: parse_count_flag(
            args,
            "--checkpoint-every",
            "shards per checkpointed wave",
        )?
        .unwrap_or(0),
        stop_after_shards: parse_count_flag(
            args,
            "--stop-after",
            "shards to complete before pausing",
        )?,
        collect_metrics: parse_metrics_flag(args),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_flag_forms_collect_in_order() {
        let a = args(&["--policy", "baseline", "ignored", "--policy=exact", "--jobs", "3"]);
        let specs = parse_policy_flags(&a).unwrap();
        assert_eq!(specs, vec![PolicySpec::Baseline, PolicySpec::Exact { every: 1 }]);
        assert_eq!(parse_jobs_flag(&a).unwrap(), Some(3));
        assert!(parse_fabric_flags(&a).unwrap().is_empty(), "absent flag means empty");
    }

    #[test]
    fn metrics_flag_is_presence_only() {
        assert!(parse_metrics_flag(&args(&["--metrics"])));
        assert!(parse_metrics_flag(&args(&["--jobs", "2", "--metrics", "--policy", "baseline"])));
        assert!(!parse_metrics_flag(&args(&["--jobs", "2"])));
        // `--metrics=x` is not the flag's grammar (and stays ignored).
        assert!(!parse_metrics_flag(&args(&["--metrics=on"])));
    }

    #[test]
    fn count_flags_take_the_last_occurrence() {
        let a = args(&["--devices", "8", "--devices=100", "--checkpoint", "x", "--checkpoint=y"]);
        assert_eq!(parse_devices_flag(&a).unwrap(), Some(100));
        assert_eq!(parse_campaign_flags(&a).unwrap().checkpoint, Some(PathBuf::from("y")));
    }

    #[test]
    fn trailing_and_malformed_flags_error() {
        assert!(parse_jobs_flag(&args(&["--jobs"])).is_err(), "trailing flag");
        assert!(parse_jobs_flag(&args(&["--jobs", "many"])).is_err(), "non-numeric count");
        assert!(parse_policy_flags(&args(&["--policy", "exact@every-0"])).is_err());
        assert!(parse_fabric_flags(&args(&["--fabric", "2x2"])).is_err(), "unbuildable fabric");
        assert!(parse_traffic_flags(&args(&["--traffic", "nonsense?"])).is_err());
        for twice in ["diurnal@swing-10+swing-90", "steady@rph-10+rph-20"] {
            assert!(parse_traffic_flags(&args(&["--traffic", twice])).is_err(), "{twice}");
        }
    }

    #[test]
    fn every_count_occurrence_must_parse() {
        // Last-wins does not skip validation of earlier occurrences.
        let a = args(&["--lanes", "zz", "--lanes", "4"]);
        assert!(parse_lanes_flag(&a).is_err());
    }
}
