//! Declared-flag command lines: a subcommand is a name, a positional
//! synopsis and a flag table, and both the parser and the usage text are
//! derived from that one declaration. `xmoe-cli`'s subcommands and the
//! bench driver ([`crate::spine::drive`]) all parse through [`Cmd::parse`];
//! every malformed command line is a [`UsageError`], which prints the
//! subcommand's generated usage and maps to exit code 2.

use std::fmt;
use std::str::FromStr;

/// How many values a flag takes.
#[derive(Clone, Copy)]
pub enum Arity {
    /// Present or absent.
    Switch,
    /// Exactly one value; the string is the metavar shown in usage.
    Value(&'static str),
    /// An optional count: consumes the next argument only if it is an
    /// unsigned integer (`--overlap` vs `--overlap 2`).
    OptCount(&'static str),
}

pub struct Flag {
    pub name: &'static str,
    pub arity: Arity,
    pub doc: &'static str,
}

/// One subcommand. `positionals` is the synopsis as shown in usage
/// (`"<experts> <topk> [tokens]"`); its `<..>` tokens are required, its
/// total token count is the maximum.
pub struct Cmd {
    pub name: &'static str,
    pub positionals: &'static str,
    pub flags: &'static [Flag],
}

/// A malformed command line: what was wrong plus the usage of the
/// subcommand it was meant for.
#[derive(Debug)]
pub struct UsageError {
    msg: String,
    usage: String,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{}", self.msg, self.usage)
    }
}

pub struct Parsed<'a> {
    cmd: &'a Cmd,
    positionals: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl Cmd {
    /// The one-line synopsis: `xmoe-cli <name> <positionals> [--flag ..]`.
    pub fn synopsis(&self) -> String {
        let mut s = format!("xmoe-cli {}", self.name);
        if !self.positionals.is_empty() {
            s.push(' ');
            s.push_str(self.positionals);
        }
        for f in self.flags {
            s.push_str(&format!(" [{}]", f.shape()));
        }
        s
    }

    /// Synopsis plus one doc line per flag.
    pub fn usage(&self) -> String {
        let mut s = format!("usage: {}", self.synopsis());
        let width = self.flags.iter().map(|f| f.shape().len()).max();
        for f in self.flags {
            let w = width.unwrap_or(0);
            s.push_str(&format!("\n  {:<w$}  {}", f.shape(), f.doc));
        }
        s
    }

    pub fn error(&self, msg: impl Into<String>) -> UsageError {
        UsageError {
            msg: msg.into(),
            usage: self.usage(),
        }
    }

    pub fn parse<'a>(&'a self, args: &'a [String]) -> Result<Parsed<'a>, UsageError> {
        let mut p = Parsed {
            cmd: self,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str).peekable();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                p.positionals.push(a);
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == a)
                .ok_or_else(|| self.error(format!("unknown flag {a}")))?;
            let value = match flag.arity {
                Arity::Switch => None,
                Arity::Value(_) => Some(
                    it.next()
                        .ok_or_else(|| self.error(format!("{a} needs a value")))?,
                ),
                Arity::OptCount(_) => it.next_if(|v| v.parse::<u64>().is_ok()),
            };
            p.flags.push((flag.name, value));
        }
        let mut names = self.positionals.split_whitespace();
        if let Some(extra) = p.positionals.get(names.clone().count()) {
            return Err(self.error(format!("unexpected argument '{extra}'")));
        }
        if let Some(missing) = names.nth(p.positionals.len()) {
            if missing.starts_with('<') {
                return Err(self.error(format!("missing {missing}")));
            }
        }
        Ok(p)
    }
}

impl Flag {
    fn shape(&self) -> String {
        match self.arity {
            Arity::Switch => self.name.to_string(),
            Arity::Value(v) => format!("{} {v}", self.name),
            Arity::OptCount(v) => format!("{} [{v}]", self.name),
        }
    }
}

impl Parsed<'_> {
    fn typed<T: FromStr>(&self, what: &str, raw: &str) -> Result<T, UsageError> {
        raw.parse()
            .map_err(|_| self.cmd.error(format!("bad value '{raw}' for {what}")))
    }

    /// Whether `name` was given (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of flag `name`, if it was given one; the last occurrence
    /// wins.
    pub fn flag<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        let raw = self.flags.iter().rev().find(|(n, _)| *n == name);
        raw.and_then(|(_, v)| *v)
            .map(|v| self.typed(name, v))
            .transpose()
    }

    /// Positional `i`, if present.
    pub fn arg<T: FromStr>(&self, i: usize) -> Result<Option<T>, UsageError> {
        let name = self.cmd.positionals.split_whitespace().nth(i);
        self.positionals
            .get(i)
            .map(|v| self.typed(name.unwrap_or("argument"), v))
            .transpose()
    }

    /// Positional `i`, which the synopsis declares required (`<..>`), so
    /// [`Cmd::parse`] has already checked it is there.
    pub fn req<T: FromStr>(&self, i: usize) -> Result<T, UsageError> {
        Ok(self.arg(i)?.expect("required positional checked by parse"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Cmd = Cmd {
        name: "demo",
        positionals: "<kind> [ranks]",
        flags: &[
            Flag {
                name: "--fast",
                arity: Arity::Switch,
                doc: "skip the slow part",
            },
            Flag {
                name: "--out",
                arity: Arity::Value("<path>"),
                doc: "where to write",
            },
            Flag {
                name: "--overlap",
                arity: Arity::OptCount("chunks"),
                doc: "pipeline in chunks",
            },
        ],
    };

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn usage_is_generated_from_the_declaration() {
        assert_eq!(
            CMD.synopsis(),
            "xmoe-cli demo <kind> [ranks] [--fast] [--out <path>] [--overlap [chunks]]"
        );
        let usage = CMD.usage();
        assert!(usage.starts_with("usage: xmoe-cli demo"));
        assert!(usage.contains("\n  --out <path>        where to write"));
    }

    #[test]
    fn flags_and_positionals_mix_in_any_order() {
        let a = args("pft --overlap 2 --out x.json 8 --fast");
        let p = CMD.parse(&a).unwrap();
        assert_eq!(p.req::<String>(0).unwrap(), "pft");
        assert_eq!(p.arg::<usize>(1).unwrap(), Some(8));
        assert_eq!(p.flag::<usize>("--overlap").unwrap(), Some(2));
        assert_eq!(
            p.flag::<String>("--out").unwrap().as_deref(),
            Some("x.json")
        );
        assert!(p.has("--fast"));
    }

    #[test]
    fn optional_count_leaves_non_numbers_alone() {
        let a = args("--overlap pft");
        let p = CMD.parse(&a).unwrap();
        assert!(p.has("--overlap"));
        assert_eq!(p.flag::<usize>("--overlap").unwrap(), None);
        assert_eq!(p.req::<String>(0).unwrap(), "pft");
    }

    #[test]
    fn every_malformed_line_is_a_usage_error() {
        for (line, what) in [
            ("pft --out", "--out needs a value"),
            ("pft --bogus", "unknown flag --bogus"),
            ("", "missing <kind>"),
            ("pft 8 9", "unexpected argument '9'"),
        ] {
            let a = args(line);
            let e = CMD.parse(&a).err().expect(line).to_string();
            assert!(e.starts_with(what), "{line}: {e}");
            assert!(e.contains("usage: xmoe-cli demo"), "{line}: {e}");
        }
        let a = args("pft many");
        let p = CMD.parse(&a).unwrap();
        let e = p.arg::<usize>(1).unwrap_err().to_string();
        assert!(e.starts_with("bad value 'many' for [ranks]"), "{e}");
    }
}
