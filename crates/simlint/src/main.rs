#![forbid(unsafe_code)]
//! `simlint` binary: lint the workspace, report in the chosen format,
//! exit non-zero on any violation.
//!
//! ```text
//! cargo run -p simlint -- [<workspace-root>] [--format text|json] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{output, RULE_TABLE};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, json: false, list_rules: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                args.json = match it.next().as_deref() {
                    Some("text") => false,
                    Some("json") => true,
                    Some(other) => return Err(format!("unknown format `{other}`; use text|json")),
                    None => return Err("--format needs a value: text|json".into()),
                };
            }
            "--list-rules" => args.list_rules = true,
            other if !other.starts_with('-') && args.root.is_none() => {
                args.root = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in RULE_TABLE {
            println!("{:<16} {}", rule.id(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match simlint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("simlint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let violations = match simlint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered =
        if args.json { output::render_json(&violations) } else { output::render_text(&violations) };
    print!("{rendered}");
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
