//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed `--key value` pairs.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parse the `--key value --key2 value2 …` list of subcommand `cmd`.
    /// A `--key` followed by another option (or by nothing) is a boolean
    /// flag and stores `"true"`. Bare tokens, keys outside `accepted` and
    /// repeated keys are rejected: a misspelt or doubled option must not
    /// silently run a different experiment from the one asked for.
    pub fn parse(cmd: &str, argv: &[String], accepted: &[&[&str]]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --option, got '{tok}'"))?;
            if !accepted.iter().any(|keys| keys.contains(&key)) {
                return Err(format!("unknown option --{key} for '{cmd}'"));
            }
            let val = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), val).is_some() {
                return Err(format!("option --{key} given more than once"));
            }
        }
        Ok(Args { values })
    }

    /// Raw value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// True when `--key` was given as a bare flag (or as `--key true`).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true"))
    }

    /// Parse `--key` as `T`; `None` when absent.
    pub fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")))
            .transpose()
    }

    /// Parse `--key` as `T`, defaulting when absent.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parse `--key` as a comma-separated list of `T`, defaulting when
    /// absent.
    pub fn parse_list_or<T: FromStr + Clone>(
        &self,
        key: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    let p = p.trim();
                    p.parse().map_err(|_| format!("--{key}: cannot parse '{p}'"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&[&str]] = &[&["load", "flows", "seed"], &["loads", "json", "metrics"]];

    fn parse(v: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Args::parse("compare", &argv, KEYS)
    }

    #[test]
    fn parses_pairs() {
        let a = parse(&["--load", "0.7", "--flows", "100"]).unwrap();
        assert_eq!(a.get("load"), Some("0.7"));
        assert_eq!(a.parse_or::<usize>("flows", 0).unwrap(), 100);
        assert_eq!(a.parse_or::<u64>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_bare_tokens() {
        assert!(parse(&["load"]).is_err());
    }

    #[test]
    fn rejects_keys_the_subcommand_does_not_declare() {
        for (argv, bad) in [
            (&["--swich", "pfc"][..], "--swich"),
            (&["--sanitise"], "--sanitise"),
            (&["--load", "0.3", "--seeds", "7"], "--seeds"),
        ] {
            let err = parse(argv).err().expect("undeclared key must be rejected");
            assert_eq!(err, format!("unknown option {bad} for 'compare'"));
        }
    }

    #[test]
    fn rejects_repeated_keys() {
        let err = parse(&["--seed", "7", "--load", "0.5", "--seed", "8"]).err();
        assert_eq!(err.as_deref(), Some("option --seed given more than once"));
        assert!(parse(&["--json", "--json"]).is_err());
    }

    #[test]
    fn valueless_keys_are_boolean_flags() {
        let a = parse(&["--json", "--seed", "7", "--metrics"]).unwrap();
        assert!(a.flag("json"));
        assert!(a.flag("metrics"));
        assert!(!a.flag("seed"));
        assert!(!a.flag("absent"));
        assert_eq!(a.parse_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn bad_parse_is_an_error_not_a_default() {
        let a = parse(&["--flows", "abc"]).unwrap();
        assert!(a.parse_or::<usize>("flows", 1).is_err());
    }

    #[test]
    fn comma_lists_parse_or_default() {
        let a = parse(&["--loads", "0.3, 0.5,0.7"]).unwrap();
        assert_eq!(a.parse_list_or::<f64>("loads", &[0.5]).unwrap(), vec![0.3, 0.5, 0.7]);
        assert_eq!(a.parse_list_or::<u64>("seeds", &[42]).unwrap(), vec![42]);
        assert!(a.parse_list_or::<u64>("loads", &[1]).is_err());
    }
}
