//! The performance ratchet: compares freshly measured `BENCH_*.json`
//! artifacts against the committed references and fails on regression.
//!
//! The committed artifacts at the repository root *are* the references —
//! there is no second copy to keep in sync. A bench run writes fresh
//! artifacts somewhere else (CI uses a scratch directory), then
//! `cargo run -p drp-bench --bin ratchet -- --refs . --current <dir>`
//! walks every `BENCH_*.json` in the reference directory and checks, per
//! sample and per metric:
//!
//! * **timings** (`*_ms`, `*_ns`, `ns_per_*`…) may grow only within a
//!   noise multiplier (shared runners jitter; the default tolerates
//!   1.75× plus one unit of absolute grace for sub-millisecond rows);
//! * **ratios** (`*speedup*`, `*per_sec*`…) may shrink only within the
//!   mirrored margin;
//! * **percent gauges** (`*savings*` up, `*overhead*` down) move within
//!   an absolute ±5-point band;
//! * **determinism flags** (`parity`, `within_budget`, `*_ok`) that were
//!   `true` in the reference must stay `true`;
//! * **fingerprints and costs** are identity: they key the sample, so a
//!   drifted fingerprint surfaces as a *missing sample* — the loudest
//!   possible failure, because it means determinism broke;
//! * **spreads** must agree with their metric, in the reference and the
//!   current artifact alike: a sample carrying `X` beside its `_min`/`_max`
//!   siblings (`flip_ns` with `flip_min_ns` and `flip_max_ns`) fails when
//!   `X` lies outside `[min, max]`;
//! * **pass spreads** (`*_spread`, a timing's worst pass over its best)
//!   describe how noisy the host was during the run; they are recorded for
//!   the reader and never gated, and they do not key the sample.
//!
//! Intentional changes (new config, faster-but-different algorithm) are
//! recorded by re-blessing: `--bless` copies the current artifacts over
//! the references, and the diff shows up in review like any other code
//! change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A parsed JSON value. Numbers keep their source text so identity
/// comparisons are exact even for floats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num { text: String, value: f64 },
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// Parses a JSON document (the subset the [`report`](crate::report)
/// emitter produces, which is a strict subset of standard JSON).
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let value: f64 = text
        .parse()
        .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
    Ok(Value::Num {
        text: text.to_string(),
        value,
    })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'/') => out.push('/'),
                    other => return Err(format!("unsupported escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// How a field participates in the ratchet, decided by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Wall-clock style: may only grow within the noise multiplier.
    LowerBetter,
    /// Speedup/throughput style: may only shrink within the margin.
    HigherBetter,
    /// Percent gauge where up is good (savings): absolute band.
    HigherBetterAbs,
    /// Percent gauge where down is good (overhead): absolute band.
    LowerBetterAbs,
    /// A `true` in the reference must stay `true`.
    MustStayTrue,
    /// Part of the sample's identity key (config, counts, fingerprints,
    /// costs): exact match through the key, never a tolerance.
    Identity,
    /// A timing's pass spread (`*_spread`): host noise, never compared.
    Spread,
}

/// Classifies a field by name. Identity is the safe default: an
/// unrecognized field keys the sample and any drift shows up as a
/// missing sample rather than being silently tolerated.
pub fn classify(key: &str) -> Class {
    let k = key.to_ascii_lowercase();
    if k.ends_with("_spread") {
        return Class::Spread;
    }
    if k == "within_budget" || k.contains("parity") || k.ends_with("_ok") || k.ends_with("_valid") {
        return Class::MustStayTrue;
    }
    if k.contains("speedup") || k.contains("per_sec") || k.contains("throughput") {
        return Class::HigherBetter;
    }
    if k.contains("savings") {
        return Class::HigherBetterAbs;
    }
    if k.contains("overhead") || k.contains("slowdown") {
        return Class::LowerBetterAbs;
    }
    if k.ends_with("_ms")
        || k.ends_with("_ns")
        || k.ends_with("_us")
        || k.ends_with("_seconds")
        || k.contains("ns_per")
        || k.contains("_ms_")
        || k.contains("latency")
    {
        return Class::LowerBetter;
    }
    Class::Identity
}

/// Regression tolerances. `slack` scales every band at once (CI smoke
/// runs on shared runners pass `--slack 2` for twice the headroom).
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Timings may reach `reference * (1 + timing_frac) + timing_abs`.
    pub timing_frac: f64,
    /// Absolute grace on timings, in the metric's own unit.
    pub timing_abs: f64,
    /// Ratios may fall to `reference * (1 - ratio_frac)`.
    pub ratio_frac: f64,
    /// Percent gauges move at most this many absolute points the wrong way.
    pub percent_abs: f64,
}

impl Tolerance {
    /// The default bands scaled by `slack`.
    pub fn with_slack(slack: f64) -> Self {
        Self {
            timing_frac: 0.75 * slack,
            timing_abs: 1.0 * slack,
            ratio_frac: (0.35 * slack).min(0.95),
            percent_abs: 5.0 * slack,
        }
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Self::with_slack(1.0)
    }
}

/// One detected regression, already rendered for the console.
pub type Violation = String;

/// Config fields that describe the host, not the benchmark.
const ENV_FIELDS: &[&str] = &[
    "available_parallelism",
    "pool_threads",
    "drp_threads",
    "kernel_isa",
];

fn identity_key(sample: &Value) -> String {
    let Value::Obj(fields) = sample else {
        return String::from("<non-object sample>");
    };
    let mut key = String::new();
    for (name, value) in fields {
        if classify(name) != Class::Identity {
            continue;
        }
        let rendered = match value {
            Value::Num { text, .. } => text.clone(),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            other => format!("{other:?}"),
        };
        let _ = write!(key, "{name}={rendered} ");
    }
    key.trim_end().to_string()
}

fn check_metric(
    context: &str,
    name: &str,
    reference: &Value,
    current: &Value,
    tol: &Tolerance,
    violations: &mut Vec<Violation>,
) {
    match classify(name) {
        Class::Identity => {} // covered by the sample key
        Class::Spread => {}   // host noise, not a property of the code
        Class::MustStayTrue => {
            if reference == &Value::Bool(true) && current != &Value::Bool(true) {
                violations.push(format!("{context}: flag {name} regressed from true"));
            }
        }
        class => {
            let (Some(r), Some(c)) = (reference.as_f64(), current.as_f64()) else {
                violations.push(format!(
                    "{context}: metric {name} is not numeric on both sides"
                ));
                return;
            };
            let ok = match class {
                Class::LowerBetter => c <= r * (1.0 + tol.timing_frac) + tol.timing_abs,
                Class::HigherBetter => c >= r * (1.0 - tol.ratio_frac),
                Class::HigherBetterAbs => c >= r - tol.percent_abs,
                Class::LowerBetterAbs => c <= r + tol.percent_abs,
                Class::Identity | Class::MustStayTrue | Class::Spread => unreachable!(),
            };
            if !ok {
                violations.push(format!(
                    "{context}: {name} regressed (reference {r}, current {c})"
                ));
            }
        }
    }
}

/// Checks one artifact against its own spreads: every sample field `X`
/// whose `_min`/`_max` siblings also exist (the sibling name with its
/// `_min` or `_max` infix dropped is `X`) must lie within `[min, max]`.
/// `side` names the artifact in the rendered violations.
pub fn spread_violations(report: &Value, side: &str) -> Vec<Violation> {
    let bench = match report.get("bench") {
        Some(Value::Str(s)) => s.as_str(),
        _ => "<unnamed>",
    };
    let mut violations = Vec::new();
    let Some(Value::Arr(samples)) = report.get("samples") else {
        return violations;
    };
    for sample in samples {
        let Value::Obj(fields) = sample else {
            continue;
        };
        for (min_name, min_value) in fields {
            // The infix is `_min` at the end of the name or before `_`.
            let Some(at) = min_name
                .match_indices("_min")
                .map(|(at, _)| at)
                .find(|&at| matches!(min_name.as_bytes().get(at + 4), None | Some(b'_')))
            else {
                continue;
            };
            let name = format!("{}{}", &min_name[..at], &min_name[at + 4..]);
            let max_name = format!("{}_max{}", &min_name[..at], &min_name[at + 4..]);
            let (Some(x), Some(lo), Some(hi)) = (
                sample.get(&name).and_then(Value::as_f64),
                min_value.as_f64(),
                sample.get(&max_name).and_then(Value::as_f64),
            ) else {
                continue;
            };
            if !(lo..=hi).contains(&x) {
                violations.push(format!(
                    "{bench} ({side}) [{}]: {name} = {x} lies outside its own \
                     spread [{lo}, {hi}]",
                    identity_key(sample)
                ));
            }
        }
    }
    violations
}

/// Compares one current report against its reference. Returns every
/// violation found (empty = ratchet holds).
pub fn compare_reports(reference: &Value, current: &Value, tol: &Tolerance) -> Vec<Violation> {
    let mut violations = Vec::new();

    let bench = match reference.get("bench") {
        Some(Value::Str(s)) => s.clone(),
        _ => String::from("<unnamed>"),
    };
    if reference.get("bench") != current.get("bench") {
        violations.push(format!("{bench}: bench name differs between the artifacts"));
        return violations;
    }
    violations.extend(spread_violations(reference, "reference"));
    violations.extend(spread_violations(current, "current"));

    // Identity config fields must match exactly: a changed configuration
    // invalidates every timing comparison, so it requires a bless, not a
    // tolerance. Fields describing the *machine* rather than the benchmark
    // (core counts, `DRP_THREADS`) are exempt — the whole point of the
    // ratchet is to compare runs across hosts — and metric-named config
    // fields (some bins summarize timings there) get the same tolerance
    // bands as sample metrics.
    if let (Some(Value::Obj(ref_config)), Some(cur_config)) =
        (reference.get("config"), current.get("config"))
    {
        let mut config_changed = false;
        for (name, ref_value) in ref_config {
            if ENV_FIELDS.contains(&name.as_str()) {
                continue;
            }
            let Some(cur_value) = cur_config.get(name) else {
                config_changed = true;
                continue;
            };
            if classify(name) == Class::Identity {
                config_changed |= ref_value != cur_value;
            } else {
                let context = format!("{bench} (config)");
                check_metric(&context, name, ref_value, cur_value, tol, &mut violations);
            }
        }
        if config_changed {
            violations.push(format!(
                "{bench}: config changed — re-run with --bless if intentional"
            ));
            return violations;
        }
    }

    // Samples are keyed by their identity fields; each reference sample
    // must find a current partner, and the partner's metrics must hold.
    let empty = Vec::new();
    let ref_samples = match reference.get("samples") {
        Some(Value::Arr(items)) => items,
        _ => &empty,
    };
    let cur_samples = match current.get("samples") {
        Some(Value::Arr(items)) => items,
        _ => &empty,
    };
    for ref_sample in ref_samples {
        let key = identity_key(ref_sample);
        let Some(cur_sample) = cur_samples.iter().find(|s| identity_key(s) == key) else {
            violations.push(format!(
                "{bench}: no current sample matches [{key}] — identity drift \
                 (changed fingerprint/cost/config) or dropped coverage"
            ));
            continue;
        };
        let Value::Obj(fields) = ref_sample else {
            continue;
        };
        for (name, ref_value) in fields {
            let context = format!("{bench} [{key}]");
            match cur_sample.get(name) {
                Some(cur_value) => {
                    check_metric(&context, name, ref_value, cur_value, tol, &mut violations);
                }
                None => violations.push(format!("{context}: metric {name} disappeared")),
            }
        }
    }

    // The budget claim must keep holding under the same terms.
    if let (Some(r), Some(c)) = (reference.get("budget"), current.get("budget")) {
        if r.get("metric") != c.get("metric") || r.get("limit") != c.get("limit") {
            violations.push(format!(
                "{bench}: budget terms changed — re-run with --bless if intentional"
            ));
        } else if r.get("within_budget") == Some(&Value::Bool(true))
            && c.get("within_budget") != Some(&Value::Bool(true))
        {
            violations.push(format!("{bench}: budget claim regressed to failing"));
        }
    }

    violations
}

/// The result of ratcheting one directory pair.
#[derive(Debug)]
pub struct Outcome {
    /// Reference files checked (`BENCH_*.json` names).
    pub checked: Vec<String>,
    /// All violations across all files.
    pub violations: Vec<Violation>,
}

/// Lists the `BENCH_*.json` artifacts in `dir`, sorted by name.
///
/// # Errors
///
/// Returns the I/O error message if the directory cannot be read.
pub fn discover(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Ratchets every reference artifact in `refs` against its same-named
/// counterpart in `current`. A missing counterpart is a violation: the
/// bench that produced the reference stopped running.
///
/// # Errors
///
/// Returns an error on unreadable directories or unparseable JSON —
/// infrastructure problems, distinct from regressions.
pub fn run(refs: &Path, current: &Path, tol: &Tolerance) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        checked: Vec::new(),
        violations: Vec::new(),
    };
    for ref_path in discover(refs)? {
        let name = ref_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("discover yields utf-8 names")
            .to_string();
        let ref_text = std::fs::read_to_string(&ref_path)
            .map_err(|e| format!("reading {}: {e}", ref_path.display()))?;
        let reference = parse(&ref_text).map_err(|e| format!("{name} (reference): {e}"))?;

        let cur_path = current.join(&name);
        if !cur_path.exists() {
            outcome.violations.push(format!(
                "{name}: no current artifact at {}",
                cur_path.display()
            ));
            outcome.checked.push(name);
            continue;
        }
        let cur_text = std::fs::read_to_string(&cur_path)
            .map_err(|e| format!("reading {}: {e}", cur_path.display()))?;
        let cur = parse(&cur_text).map_err(|e| format!("{name} (current): {e}"))?;

        outcome
            .violations
            .extend(compare_reports(&reference, &cur, tol));
        outcome.checked.push(name);
    }
    Ok(outcome)
}

/// Blesses the current artifacts: copies every `BENCH_*.json` in
/// `current` over the same name in `refs`. Returns the copied names.
///
/// # Errors
///
/// Returns the I/O error message on an unreadable source or unwritable
/// destination.
pub fn bless(refs: &Path, current: &Path) -> Result<Vec<String>, String> {
    let mut copied = Vec::new();
    for cur_path in discover(current)? {
        let name = cur_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("discover yields utf-8 names")
            .to_string();
        std::fs::copy(&cur_path, refs.join(&name)).map_err(|e| format!("blessing {name}: {e}"))?;
        copied.push(name);
    }
    Ok(copied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Budget, Fields, Report};

    fn demo_report(gra_ms: f64, speedup: f64, parity: bool) -> Value {
        let mut report = Report::new(
            "demo",
            Fields::new().text("unit", "ms").int("population", 16),
            Budget::at_least("speedup", 1.5, speedup),
        );
        report.sample(
            Fields::new()
                .int("sites", 100)
                .float("gra_serial_ms", gra_ms, 2)
                .float("speedup_parallel_vs_serial", speedup, 2)
                .text("gra_fingerprint", "abc123")
                .flag("parity", parity),
        );
        parse(&report.render()).expect("report renders valid JSON")
    }

    #[test]
    fn parser_round_trips_the_report_shape() {
        let value = demo_report(10.0, 2.0, true);
        assert_eq!(value.get("bench"), Some(&Value::Str("demo".into())));
        let Some(Value::Arr(samples)) = value.get("samples") else {
            panic!("samples must parse as an array");
        };
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("sites").and_then(Value::as_f64), Some(100.0));
        assert_eq!(
            value.get("budget").and_then(|b| b.get("within_budget")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,,]").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn classification_covers_the_artifact_vocabulary() {
        assert_eq!(classify("gra_serial_ms"), Class::LowerBetter);
        assert_eq!(classify("full_eval_ns"), Class::LowerBetter);
        assert_eq!(
            classify("serial_population_ns_per_eval"),
            Class::LowerBetter
        );
        assert_eq!(classify("speedup_parallel_vs_serial"), Class::HigherBetter);
        assert_eq!(classify("savings_percent"), Class::HigherBetterAbs);
        assert_eq!(classify("overhead_percent"), Class::LowerBetterAbs);
        assert_eq!(classify("parity"), Class::MustStayTrue);
        assert_eq!(classify("within_budget"), Class::MustStayTrue);
        assert_eq!(classify("sites"), Class::Identity);
        assert_eq!(classify("gra_fingerprint"), Class::Identity);
        assert_eq!(classify("gra_cost"), Class::Identity);
        assert_eq!(classify("full_eval_spread"), Class::Spread);
    }

    #[test]
    fn pass_spreads_neither_key_nor_gate_the_sample() {
        let artifact = |spread: f64| {
            let mut report = Report::new(
                "demo",
                Fields::new().text("unit", "ns"),
                Budget::at_least("speedup", 1.5, 2.0),
            );
            report.sample(
                Fields::new()
                    .int("sites", 10)
                    .float("full_eval_ns", 100.0, 1)
                    .float("full_eval_spread", spread, 2),
            );
            parse(&report.render()).unwrap()
        };
        let violations = compare_reports(&artifact(1.05), &artifact(3.5), &Tolerance::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn identical_reports_pass() {
        let reference = demo_report(10.0, 2.0, true);
        let violations = compare_reports(&reference, &reference, &Tolerance::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let reference = demo_report(10.0, 2.0, true);
        let current = demo_report(14.0, 1.7, true); // 1.4× timing, −15% ratio
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn timing_regression_fails() {
        let reference = demo_report(10.0, 2.0, true);
        let current = demo_report(25.0, 2.0, true); // 2.5× > 1.75× + 1.0
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("gra_serial_ms"));
    }

    #[test]
    fn ratio_regression_fails() {
        let reference = demo_report(10.0, 2.0, true);
        let current = demo_report(10.0, 1.2, true); // −40% < −35% band
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(
            violations
                .iter()
                .any(|v| v.contains("speedup_parallel_vs_serial")),
            "{violations:?}"
        );
        // The budget floor (1.5) also trips: actual fell below the limit.
        assert!(
            violations.iter().any(|v| v.contains("budget")),
            "{violations:?}"
        );
    }

    #[test]
    fn parity_flip_fails() {
        let reference = demo_report(10.0, 2.0, true);
        let current = demo_report(10.0, 2.0, false);
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(
            violations.iter().any(|v| v.contains("parity")),
            "{violations:?}"
        );
    }

    #[test]
    fn fingerprint_drift_is_a_missing_sample() {
        let reference = demo_report(10.0, 2.0, true);
        let mut report = Report::new(
            "demo",
            Fields::new().text("unit", "ms").int("population", 16),
            Budget::at_least("speedup", 1.5, 2.0),
        );
        report.sample(
            Fields::new()
                .int("sites", 100)
                .float("gra_serial_ms", 10.0, 2)
                .float("speedup_parallel_vs_serial", 2.0, 2)
                .text("gra_fingerprint", "DIFFERENT")
                .flag("parity", true),
        );
        let current = parse(&report.render()).unwrap();
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(
            violations.iter().any(|v| v.contains("no current sample")),
            "{violations:?}"
        );
    }

    #[test]
    fn config_change_demands_a_bless() {
        let reference = demo_report(10.0, 2.0, true);
        let mut report = Report::new(
            "demo",
            Fields::new().text("unit", "ms").int("population", 32), // changed
            Budget::at_least("speedup", 1.5, 2.0),
        );
        report.sample(Fields::new().int("sites", 100));
        let current = parse(&report.render()).unwrap();
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(
            violations.iter().any(|v| v.contains("--bless")),
            "{violations:?}"
        );
    }

    #[test]
    fn machine_fields_and_config_timings_are_not_identity() {
        let build = |threads: u64, noop_ms: f64| {
            let isa = if threads == 1 { "baseline" } else { "avx2" };
            let mut report = Report::new(
                "demo",
                Fields::new()
                    .text("unit", "ms")
                    .int("population", 16)
                    .int("available_parallelism", threads)
                    .int("pool_threads", threads)
                    .text("drp_threads", "unset")
                    .text("kernel_isa", isa)
                    .float("gra_noop_ms", noop_ms, 1),
                Budget::at_least("speedup", 1.5, 2.0),
            );
            report.sample(Fields::new().int("sites", 100).flag("parity", true));
            parse(&report.render()).unwrap()
        };
        // Different core counts, kernel builds and noisy config timing:
        // still passes.
        let reference = build(1, 10.0);
        let current = build(8, 12.0);
        let violations = compare_reports(&reference, &current, &Tolerance::default());
        assert!(violations.is_empty(), "{violations:?}");
        // A regressed config timing is caught with the metric bands.
        let slow = build(1, 40.0);
        let violations = compare_reports(&reference, &slow, &Tolerance::default());
        assert!(
            violations.iter().any(|v| v.contains("gra_noop_ms")),
            "{violations:?}"
        );
    }

    #[test]
    fn metric_outside_its_own_spread_fails() {
        let artifact = |x: f64| {
            let mut report = Report::new(
                "demo",
                Fields::new().text("unit", "ns"),
                Budget::at_least("speedup", 1.5, 2.0),
            );
            report.sample(
                Fields::new()
                    .int("sites", 10)
                    .float("flip_ns", x, 1)
                    .float("flip_min_ns", 100.0, 1)
                    .float("flip_max_ns", 120.0, 1)
                    .float("ns_per_req", 900.0, 1)
                    .float("ns_per_req_min", 300.0, 1),
            );
            parse(&report.render()).unwrap()
        };
        // In range, and at either bound: nothing to report. `ns_per_req`
        // has no `_max` sibling, so it is never checked.
        for x in [100.0, 110.0, 120.0] {
            assert!(spread_violations(&artifact(x), "current").is_empty());
        }
        for x in [99.0, 121.0] {
            let violations = spread_violations(&artifact(x), "current");
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert!(violations[0].contains("flip_ns") && violations[0].contains("current"));
        }
        // The ratchet applies it to both sides, even when they are equal.
        let bad = artifact(90.0);
        let violations = compare_reports(&bad, &bad, &Tolerance::default());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("(reference)"));
        assert!(violations[1].contains("(current)"));
        assert!(
            compare_reports(&artifact(110.0), &artifact(110.0), &Tolerance::default()).is_empty()
        );
    }

    #[test]
    fn slack_scales_the_bands() {
        let reference = demo_report(10.0, 2.0, true);
        let current = demo_report(25.0, 2.0, true);
        let strict = compare_reports(&reference, &current, &Tolerance::default());
        assert!(!strict.is_empty());
        let lenient = compare_reports(&reference, &current, &Tolerance::with_slack(2.0));
        assert!(lenient.is_empty(), "{lenient:?}");
    }

    #[test]
    fn directory_run_and_bless_round_trip() {
        let base = std::env::temp_dir().join(format!("drp-ratchet-{}", std::process::id()));
        let refs = base.join("refs");
        let cur = base.join("cur");
        std::fs::create_dir_all(&refs).unwrap();
        std::fs::create_dir_all(&cur).unwrap();

        let write = |dir: &Path, gra_ms: f64| {
            let mut report = Report::new(
                "demo",
                Fields::new().text("unit", "ms"),
                Budget::at_least("speedup", 1.5, 2.0),
            );
            report.sample(
                Fields::new()
                    .int("sites", 10)
                    .float("gra_serial_ms", gra_ms, 2),
            );
            std::fs::write(dir.join("BENCH_demo.json"), report.render()).unwrap();
        };
        write(&refs, 10.0);
        write(&cur, 50.0); // clear regression

        let outcome = run(&refs, &cur, &Tolerance::default()).unwrap();
        assert_eq!(outcome.checked, vec!["BENCH_demo.json"]);
        assert!(!outcome.violations.is_empty());

        // Missing current artifact is itself a violation.
        std::fs::remove_file(cur.join("BENCH_demo.json")).unwrap();
        let missing = run(&refs, &cur, &Tolerance::default()).unwrap();
        assert!(missing.violations[0].contains("no current artifact"));

        // Bless copies current over refs; the ratchet then holds.
        write(&cur, 50.0);
        let copied = bless(&refs, &cur).unwrap();
        assert_eq!(copied, vec!["BENCH_demo.json"]);
        let after = run(&refs, &cur, &Tolerance::default()).unwrap();
        assert!(after.violations.is_empty(), "{:?}", after.violations);

        std::fs::remove_dir_all(&base).ok();
    }
}
