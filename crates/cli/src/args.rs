//! A small, dependency-free argument parser: `--key value` and `--flag`
//! options after a subcommand.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Parsed command line: a subcommand plus options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A user-facing argument error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<rfsp_run::RunError> for ArgError {
    fn from(e: rfsp_run::RunError) -> Self {
        ArgError(e.0)
    }
}

impl Args {
    /// Parse raw arguments (without the program name). `--key value` pairs
    /// become options; a `--key` followed by another `--…` (or nothing) is
    /// a boolean flag.
    ///
    /// # Errors
    ///
    /// Rejects stray positional arguments after the subcommand.
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let takes_value = iter.peek().is_some_and(|next| !next.starts_with("--"));
                if takes_value {
                    let value = iter.next().expect("peeked");
                    args.opts.insert(key.to_string(), value);
                } else {
                    args.flags.push(key.to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument '{tok}'")));
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparseable values with the offending key.
    pub fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError(format!("invalid value '{v}' for --{key}"))),
        }
    }

    /// A size option (`--n`, `--p`) with a default: like
    /// [`get_parsed`](Args::get_parsed), but zero is refused too.
    ///
    /// # Errors
    ///
    /// Reports unparseable values and zero with the offending key.
    pub fn get_size(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get_parsed(key, default)? {
            0 => Err(ArgError(format!("--{key} must be at least 1"))),
            size => Ok(size),
        }
    }

    /// A numeric option with a default that must lie in `range`: thread
    /// counts (each one an OS thread spawned, so capped at
    /// [`rfsp_run::MAX_THREADS`]) and fault rates (probabilities, so NaN is
    /// refused too).
    ///
    /// # Errors
    ///
    /// Reports unparseable and out-of-range values with the offending key.
    pub fn get_in<T>(&self, key: &str, default: T, range: RangeInclusive<T>) -> Result<T, ArgError>
    where
        T: FromStr + PartialOrd + fmt::Display,
    {
        let value = self.get_parsed(key, default)?;
        if !range.contains(&value) {
            let (lo, hi) = (range.start(), range.end());
            return Err(ArgError(format!("--{key} must be between {lo} and {hi}, not {value}")));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(["writeall", "--n", "64", "--trace", "--algo", "x"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("writeall"));
        assert_eq!(a.get("n"), Some("64"));
        assert_eq!(a.get("algo"), Some("x"));
        assert!(a.flag("trace"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = Args::parse(["run", "--n", "12"]).unwrap();
        assert_eq!(a.get_parsed("n", 5usize).unwrap(), 12);
        assert_eq!(a.get_parsed("p", 5usize).unwrap(), 5);
        let a = Args::parse(["run", "--n", "abc"]).unwrap();
        assert!(a.get_parsed::<usize>("n", 0).is_err());
        assert!(a.get_size("n", 5).is_err());
        let a = Args::parse(["run", "--n", "0"]).unwrap();
        assert_eq!(a.get_size("n", 5).unwrap_err().0, "--n must be at least 1");
        assert_eq!(a.get_size("p", 5).unwrap(), 5);
        let a = Args::parse(["run", "--threads", "0", "--rate", "NaN", "--p", "256"]).unwrap();
        let e = a.get_in("threads", 1, 1..=256).unwrap_err();
        assert_eq!(e.0, "--threads must be between 1 and 256, not 0");
        assert_eq!(a.get_in("threads", 1, 0..=256).unwrap(), 0);
        assert_eq!(a.get_in("p", 1, 1..=256).unwrap(), 256);
        assert!(a.get_in("p", 1, 1..=255).is_err());
        let e = a.get_in("rate", 0.5, 0.0..=1.0).unwrap_err();
        assert_eq!(e.0, "--rate must be between 0 and 1, not NaN");
        assert_eq!(a.get_in("seed", 0.5, 0.0..=1.0).unwrap(), 0.5);
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = Args::parse(["x", "--verbose"]).unwrap();
        assert!(a.flag("verbose"));
    }

    #[test]
    fn rejects_extra_positionals() {
        let Err(e) = Args::parse(["a", "b"]) else { panic!("positional accepted") };
        assert!(e.0.contains("unexpected positional argument 'b'"), "{e}");
        // The offender is named even when buried among valid options.
        let Err(e) = Args::parse(["cmd", "--n", "4", "oops", "--p", "2"]) else {
            panic!("positional accepted")
        };
        assert!(e.0.contains("'oops'"), "{e}");
    }

    #[test]
    fn parse_errors_name_the_key_and_value() {
        let a = Args::parse(["run", "--n", "abc", "--rate", "fast"]).unwrap();
        let Err(e) = a.get_parsed::<u64>("n", 0) else { panic!("'abc' parsed as u64") };
        assert_eq!(e.0, "invalid value 'abc' for --n");
        let Err(e) = a.get_parsed::<f64>("rate", 0.0) else { panic!("'fast' parsed as f64") };
        assert_eq!(e.0, "invalid value 'fast' for --rate");
        // Error text round-trips through Display and From<RunError>.
        assert_eq!(e.to_string(), "invalid value 'fast' for --rate");
        let converted: ArgError = rfsp_run::RunError("spool on fire".into()).into();
        assert_eq!(converted.0, "spool on fire");
    }

    #[test]
    fn value_looking_like_flag_becomes_boolean() {
        // `--key --other` treats `--key` as a flag, not an option with the
        // value "--other" — the documented (if sharp-edged) behaviour.
        let a = Args::parse(["cmd", "--checkpoint", "--verbose"]).unwrap();
        assert_eq!(a.get("checkpoint"), None);
        assert!(a.flag("checkpoint") && a.flag("verbose"));
    }
}
