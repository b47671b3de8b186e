//! The one flag parser behind every `nrpm` command: the lexer that splits a
//! command line into `--name [value]` flags and positionals, and the typed
//! lookups each command reads its options through.

use nrpm_extrap::Aggregation;
use std::cell::Cell;
use std::str::FromStr;

/// Every flag that never takes a value. The lexer consults it, so the token
/// after a switch is always a positional argument.
pub(crate) const SWITCHES: &[&str] = &[
    "adapt",
    "adaptive",
    "ci",
    "debug-hooks",
    "dry-run",
    "feed",
    "lenient",
    "linear-encoding",
    "no-adaptation",
    "once",
    "paper-net",
    "quantize",
    "quick",
    "refined-baseline",
    "show-dnn",
    "show-models",
    "standby",
    "strict",
];

/// One command line after its command word, split into flags and
/// positionals.
pub(crate) struct CommandLine<'a> {
    /// The `--name [value]` arguments.
    pub(crate) flags: Flags,
    /// Every other token, in order.
    pub(crate) positional: Vec<String>,
    /// The switch each positional directly follows, if any: a stray token
    /// after a switch is reported against that switch.
    pub(crate) follows: Vec<Option<&'a str>>,
}

/// Splits the arguments of `command` into flags and positionals. A flag
/// takes the next token as its value unless it is a switch or that token is
/// itself a flag; a flag given twice is an error.
pub(crate) fn lex<'a>(command: &str, args: &'a [String]) -> Result<CommandLine<'a>, String> {
    let mut iter = args.iter().peekable();
    let mut positional = Vec::new();
    let mut follows = Vec::new();
    let mut after_switch = None;
    let mut entries: Vec<(String, Option<String>, Cell<bool>)> = Vec::new();
    while let Some(arg) = iter.next() {
        let previous_switch = after_switch.take();
        if let Some(name) = arg.strip_prefix("--") {
            if entries.iter().any(|(n, _, _)| n == name) {
                return Err(format!("{command}: --{name} given twice"));
            }
            let value = if SWITCHES.contains(&name) {
                after_switch = Some(name);
                None
            } else {
                iter.next_if(|next| !next.starts_with("--")).cloned()
            };
            entries.push((name.to_string(), value, Cell::new(false)));
        } else {
            positional.push(arg.clone());
            follows.push(previous_switch);
        }
    }
    Ok(CommandLine {
        flags: Flags { entries },
        positional,
        follows,
    })
}

/// The `--name [value]` arguments of one command line, each given at most
/// once. Every lookup marks the flag as read, so whatever no branch of
/// [`crate::Invocation::parse`] asked for — a misspelling, or a flag of
/// another command — is left in [`Flags::unread`].
pub(crate) struct Flags {
    entries: Vec<(String, Option<String>, Cell<bool>)>,
}

impl Flags {
    /// The value of `--name` (`Some(None)` for a switch), or `None` when it
    /// is absent.
    fn get(&self, name: &str) -> Option<&Option<String>> {
        let (_, value, read) = self.entries.iter().find(|(n, _, _)| n == name)?;
        read.set(true);
        Some(value)
    }

    /// Whether the switch `--name` was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        debug_assert!(
            SWITCHES.contains(&name),
            "--{name} is missing from SWITCHES"
        );
        self.get(name).is_some()
    }

    /// The value of `--name`, an error if it was given bare.
    pub(crate) fn value(&self, name: &str) -> Result<Option<String>, String> {
        debug_assert!(!SWITCHES.contains(&name), "--{name} is a switch");
        match self.get(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v.clone())),
            Some(None) => Err(format!("--{name} needs a value")),
        }
    }

    /// The value of `--name` parsed as a number.
    pub(crate) fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--{name}: `{s}` is not a number"))
            })
            .transpose()
    }

    /// The value of `--name` as a count of at least `min` (`default` when
    /// absent): a smaller count is an error naming the flag.
    pub(crate) fn count(&self, name: &str, default: usize, min: usize) -> Result<usize, String> {
        let n = self.number(name)?.unwrap_or(default);
        if n < min {
            return Err(format!("--{name}: must be at least {min}, got {n}"));
        }
        Ok(n)
    }

    /// The value of `--name` as a comma-separated list of numbers.
    pub(crate) fn list(&self, name: &str) -> Result<Option<Vec<f64>>, String> {
        self.value(name)?
            .map(|raw| {
                raw.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("--{name}: `{s}` is not a number"))
                    })
                    .collect()
            })
            .transpose()
    }

    /// The repetition aggregation `--aggregation median|mean|min` selects
    /// (default median).
    pub(crate) fn aggregation(&self) -> Result<Aggregation, String> {
        match self.value("aggregation")?.as_deref() {
            None | Some("median") => Ok(Aggregation::Median),
            Some("mean") => Ok(Aggregation::Mean),
            Some("min" | "minimum") => Ok(Aggregation::Minimum),
            Some(other) => Err(format!(
                "--aggregation: unknown value `{other}` (median|mean|min)"
            )),
        }
    }

    /// Flags no lookup has read, in command-line order.
    pub(crate) fn unread(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, _, read)| !read.get())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn flags(s: &str) -> Flags {
        lex("test", &words(s)).unwrap().flags
    }

    #[test]
    fn parses_values_and_switches() {
        let args = words("--functions 500 --paper-net 7 --params 2");
        let line = lex("test", &args).unwrap();
        let f = &line.flags;
        assert_eq!(f.number::<usize>("functions").unwrap(), Some(500));
        assert_eq!(f.number::<usize>("params").unwrap(), Some(2));
        assert!(f.switch("paper-net"));
        assert!(!f.switch("quick"));
        // A switch never swallows the token after it: `7` stays a
        // positional, tagged with the switch it follows.
        assert_eq!(line.positional, ["7"]);
        assert_eq!(line.follows, [Some("paper-net")]);
        assert!(f.unread().is_empty());
        assert_eq!(
            lex("test", &words("--seed 1 --seed 2")).err().unwrap(),
            "test: --seed given twice"
        );
    }

    #[test]
    fn defaults_apply_when_missing() {
        let f = flags("");
        assert_eq!(f.number("functions").unwrap().unwrap_or(123usize), 123);
        assert_eq!(f.number("seed").unwrap().unwrap_or(7u64), 7);
        assert_eq!(f.list("noise").unwrap(), None);
        // A flag given bare is not absent: it needs its value.
        assert_eq!(
            flags("--seed").number::<u64>("seed").unwrap_err(),
            "--seed needs a value"
        );
    }

    #[test]
    fn float_lists() {
        assert_eq!(
            flags("--noise 0.02,0.5,1.0").list("noise").unwrap(),
            Some(vec![0.02, 0.5, 1.0])
        );
        assert_eq!(flags("").list("noise").unwrap(), None);
        assert_eq!(
            flags("--noise 0.1,x").list("noise").unwrap_err(),
            "--noise: `x` is not a number"
        );
    }

    #[test]
    #[should_panic(expected = "--functions: `abc` is not a number")]
    fn bad_value_panics() {
        // An unparsable value is an error naming the flag and the token;
        // unwrapping it is what panics.
        flags("--functions abc")
            .number::<usize>("functions")
            .unwrap();
    }

    #[test]
    fn aggregation_flag_variants() {
        assert_eq!(flags("").aggregation().unwrap(), Aggregation::Median);
        assert_eq!(
            flags("--aggregation mean").aggregation().unwrap(),
            Aggregation::Mean
        );
        assert_eq!(
            flags("--aggregation min").aggregation().unwrap(),
            Aggregation::Minimum
        );
    }

    #[test]
    #[should_panic(expected = "--aggregation: unknown value `mode`")]
    fn aggregation_flag_rejects_garbage() {
        flags("--aggregation mode").aggregation().unwrap();
    }
}
