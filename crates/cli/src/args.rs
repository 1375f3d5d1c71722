//! A minimal `--key value` argument parser.
//!
//! Hand-rolled to stay within the project's sanctioned dependency set (no
//! `clap` offline); supports exactly what `drum-lab` needs: one positional
//! subcommand followed by `--key value` pairs and boolean `--flag`s.
//! Every lookup marks its name as read, so a command can reject the
//! options it never asked about ([`Args::reject_unread`]).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand plus options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The positional subcommand, if any.
    pub command: Option<String>,
    /// `--key value` options.
    options: HashMap<String, String>,
    /// Bare `--flag`s.
    flags: Vec<String>,
    /// Option and flag names some lookup has asked for.
    read: RefCell<BTreeSet<String>>,
}

/// Errors from argument parsing or typed lookups.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// An option was given without a value (`--n` at end of line).
    MissingValue(String),
    /// A value failed to parse as the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// The raw value.
        value: String,
        /// Target type name.
        wanted: &'static str,
    },
    /// Unexpected extra positional argument.
    UnexpectedPositional(String),
    /// Options or flags the command never read (sorted names).
    Unread(Vec<String>),
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue { key, value, wanted } => {
                write!(f, "--{key} {value}: expected {wanted}")
            }
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgError::Unread(names) => {
                let names: Vec<String> = names.iter().map(|n| format!("--{n}")).collect();
                write!(f, "this command takes no {}", names.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean flags (take no value).
const FLAG_NAMES: &[&str] = &["help", "full", "quick", "no-random-ports", "shared-bounds"];

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on malformed input.
    pub fn parse<I, S>(args: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if FLAG_NAMES.contains(&key) {
                    out.flags.push(key.to_string());
                    continue;
                }
                match iter.next() {
                    Some(value) => {
                        out.options.insert(key.to_string(), value);
                    }
                    None => return Err(ArgError::MissingValue(key.to_string())),
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    fn mark_read(&self, name: &str) {
        self.read.borrow_mut().insert(name.to_string());
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.mark_read(name);
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.mark_read(key);
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if present but unparsable.
    pub fn get_or<T: core::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                wanted: core::any::type_name::<T>(),
            }),
        }
    }

    /// Errors unless every given option and flag was read. Call it once a
    /// command has made every lookup it will make.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Unread`] naming every given option or flag no
    /// lookup asked for: a misspelt or misplaced option would otherwise
    /// be silently ignored.
    pub fn reject_unread(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        let unread: BTreeSet<String> = self
            .options
            .keys()
            .chain(&self.flags)
            .filter(|name| !read.contains(*name))
            .cloned()
            .collect();
        if unread.is_empty() {
            Ok(())
        } else {
            Err(ArgError::Unread(unread.into_iter().collect()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_options() {
        let args = Args::parse(["simulate", "--n", "120", "--x", "128.5"]).unwrap();
        assert_eq!(args.command.as_deref(), Some("simulate"));
        assert_eq!(args.get_or("n", 0usize).unwrap(), 120);
        assert_eq!(args.get_or("x", 0.0f64).unwrap(), 128.5);
        assert_eq!(args.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn parses_flags() {
        let args = Args::parse(["simulate", "--full", "--n", "10", "--no-random-ports"]).unwrap();
        assert!(args.flag("full"));
        assert!(args.flag("no-random-ports"));
        assert!(!args.flag("help"));
        assert_eq!(args.get_or("n", 0usize).unwrap(), 10);
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            Args::parse(["simulate", "--n"]).unwrap_err(),
            ArgError::MissingValue("n".into())
        );
    }

    #[test]
    fn bad_value_rejected() {
        let args = Args::parse(["simulate", "--n", "notanumber"]).unwrap();
        assert!(matches!(
            args.get_or("n", 0usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn extra_positional_rejected() {
        assert_eq!(
            Args::parse(["simulate", "extra"]).unwrap_err(),
            ArgError::UnexpectedPositional("extra".into())
        );
    }

    #[test]
    fn unread_options_and_flags_are_named() {
        let args = Args::parse(["simulate", "--n", "5", "--trails", "9", "--full"]).unwrap();
        assert_eq!(args.get_or("n", 0usize).unwrap(), 5);
        assert_eq!(
            args.reject_unread().unwrap_err(),
            ArgError::Unread(vec!["full".into(), "trails".into()])
        );
        assert!(args.flag("full"));
        assert_eq!(args.get("trails"), Some("9"));
        assert_eq!(args.reject_unread(), Ok(()));
        assert!(ArgError::Unread(vec!["trails".into()])
            .to_string()
            .contains("--trails"));
    }

    #[test]
    fn empty_is_ok() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert!(args.command.is_none());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingValue("n".into())
            .to_string()
            .contains("--n"));
        assert!(ArgError::BadValue {
            key: "x".into(),
            value: "y".into(),
            wanted: "f64"
        }
        .to_string()
        .contains("expected"));
    }
}
