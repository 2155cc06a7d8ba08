//! Command-line front end for the DRP reproduction.
//!
//! All logic lives here (the `drp` binary is a thin shell) so the test
//! suite can drive commands in-process. Instances and schemes travel in the
//! plain-text formats of [`drp_core::format`].
//!
//! ```text
//! drp generate --sites 20 --objects 50 --update 5 --capacity 15 -o net.drp
//! drp solve    --instance net.drp --algorithm gra -o scheme.drp
//! drp evaluate --instance net.drp --scheme scheme.drp
//! drp adapt    --instance net.drp --new-instance shifted.drp --scheme scheme.drp
//! drp faults   --instance net.drp --crash 2@80..380 --seed 17
//! drp serve    --instance net.drp --policy monitor --epochs 4 --drift 600:30:0.8
//! drp inspect  --instance net.drp
//! ```

mod args;
mod commands;

pub use args::{parse, CliError, Command};
pub use commands::run_command;

/// Usage banner printed on argument errors.
pub const USAGE: &str = "\
usage:
  drp generate --sites M --objects N [--update U%] [--capacity C%]
               [--topology complete|ring|tree|grid|er|waxman|hier] [--zipf S]
               [--seed N] [-o|--output FILE]
  drp solve    --instance FILE --algorithm sra|gra|hill|random|optimal|primary
               [--seed N] [--pop N] [--gens N] [--shards K] [-o|--output FILE]
               [--trace-out FILE]
  drp evaluate --instance FILE --scheme FILE
  drp inspect  --instance FILE
  drp distributed --instance FILE [-o|--output FILE]
  drp faults   --instance FILE [--scheme FILE] [--crash SITE@FROM..UNTIL]...
               [--drop P] [--jitter J] [--seed N] [--min-degree D]
               [--horizon T] [--trace-out FILE]
  drp adapt    --instance FILE --new-instance FILE --scheme FILE
               [--mini N] [--threshold PCT] [--seed N] [-o|--output FILE]
  drp serve    --instance FILE
               [--policy static|monitor|monitor+hot|predictive-ewma|
                         predictive-regression]
               [--epochs N] [--period T] [--seed N] [--night-every K]
               [--admission-limit N] [--threads N] [--min-degree D]
               [--drift CHANGE%:OBJECTS%:READSHARE | --scenario NAME
                | --crash SITE@FROM..UNTIL... --drop P --jitter J]
               [--oracle] [--report-out FILE] [--trace-out FILE]
               [--wal-dir DIR [--recover] [--checkpoint-every K]]
               scenarios: diurnal|flash-crowd|regional-failover|
                          partition-drift|read-write-inversion";

/// Parses and executes one command line, returning its stdout text.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unreadable files or solver
/// failures, with a message suitable for the terminal.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = parse(args)?;
    run_command(command)
}

#[cfg(test)]
mod tests {
    use super::USAGE;

    #[test]
    fn usage_names_every_flag_and_value_the_parser_accepts() {
        let flags: Vec<&str> = include_str!("args.rs")
            .split('"')
            .filter(|t| t.len() > 2 && t.starts_with("--"))
            .filter(|t| t[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-'))
            .collect();
        assert!(flags.len() > 20, "flag scan found only {flags:?}");
        for flag in flags {
            let listed = USAGE.contains(&format!("{flag} ")) || USAGE.contains(&format!("{flag}]"));
            assert!(listed, "USAGE omits {flag}");
        }
        for policy in drp_serve::Policy::ALL {
            assert!(USAGE.contains(policy.name()), "USAGE omits {policy:?}");
        }
        for scenario in drp_workload::Scenario::ALL {
            assert!(USAGE.contains(scenario.name()), "USAGE omits {scenario:?}");
        }
        assert!(!USAGE.contains("adr"));
    }
}
