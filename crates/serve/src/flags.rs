//! The command-line flag reader shared by every isex binary.
//!
//! A cursor over `--flag value` tokens: the caller matches each token and
//! asks for its value, and the reader owns the two error texts every
//! daemon has always used — `--flag needs a value` and `bad --flag`.

use std::str::FromStr;

/// Walks a flag list one token at a time.
pub struct Flags<'a> {
    args: &'a [String],
    next: usize,
}

impl<'a> Flags<'a> {
    /// A reader over `args` (the program name already stripped).
    pub fn new(args: &'a [String]) -> Self {
        Flags { args, next: 0 }
    }

    /// The next token, flag or positional.
    pub fn next_arg(&mut self) -> Option<&'a str> {
        let token = self.args.get(self.next)?;
        self.next += 1;
        Some(token)
    }

    /// The value following `flag`, consumed.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next_arg()
            .map(str::to_string)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed; `bad {flag}` when it does not.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?.parse().map_err(|_| format!("bad {flag}"))
    }
}
