//! The one flag parser behind every `ppa` subcommand: a cursor over the
//! arguments that reads a flag's value, a number or one of a fixed set
//! of names, collects positionals, and owns the usage errors every
//! command shares (unknown flag, unexpected argument, missing or bad
//! value). Flags more than one command takes are parsed once, in
//! [`MetricsFlags`] and [`PipelineFlags`].

use crate::CliError;
use std::str::FromStr;
use std::time::Duration;

/// Upper bound accepted for `--decode-workers`: far above any real
/// machine, low enough to catch typos (a missing argument swallowing
/// the next flag, a pasted event count) before spawning threads.
const MAX_DECODE_WORKERS: usize = 1024;

/// The arguments after the flag being parsed.
pub(crate) struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

/// Parses one subcommand's `args`. Every argument that starts with `-`
/// goes to `on_flag`, which reads the flag's values from the cursor and
/// returns `false` for a flag the command does not take; the first `N`
/// other arguments are the positionals, in order.
pub(crate) fn parse_args<'a, const N: usize>(
    args: &'a [String],
    mut on_flag: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<[Option<&'a str>; N], CliError> {
    let mut cursor = Args {
        rest: args.iter(),
        flag: "",
    };
    let mut positionals = [None; N];
    let mut taken = 0;
    while let Some(arg) = cursor.rest.next() {
        if arg.starts_with('-') {
            cursor.flag = arg;
            if !on_flag(arg, &mut cursor)? {
                return Err(CliError::Usage(format!("unknown flag {arg:?}")));
            }
        } else if taken < N {
            positionals[taken] = Some(arg.as_str());
            taken += 1;
        } else {
            return Err(CliError::Usage(format!("unexpected argument {arg:?}")));
        }
    }
    Ok(positionals)
}

impl<'a> Args<'a> {
    /// The flag's value: the next argument, whatever it looks like.
    pub(crate) fn value(&mut self) -> Result<&'a str, CliError> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{} needs an argument", self.flag)))
    }

    /// The flag's value parsed as a `T` that `ok` accepts; otherwise a
    /// usage error saying the flag must be `what`.
    pub(crate) fn parsed<T: FromStr>(
        &mut self,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        let v = self.value()?;
        v.parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| CliError::Usage(format!("{} must be {what}, got {v:?}", self.flag)))
    }

    pub(crate) fn nonneg<T: FromStr>(&mut self) -> Result<T, CliError> {
        self.parsed("a non-negative integer", |_| true)
    }

    pub(crate) fn positive<T: FromStr + Default + PartialOrd>(&mut self) -> Result<T, CliError> {
        self.parsed("a positive integer", |n| *n > T::default())
    }

    /// One of a fixed set of names as `parse` reads them; `names` lists
    /// them for the error (``"`bin` or `jsonl`"``).
    pub(crate) fn choice<T>(
        &mut self,
        parse: impl Fn(&str) -> Option<T>,
        names: &str,
    ) -> Result<T, CliError> {
        let v = self.value()?;
        parse(v).ok_or_else(|| CliError::Usage(format!("{} must be {names}, got {v:?}", self.flag)))
    }

    /// A `--decode-workers` count: `0` means serial decode, and absurd
    /// values are a usage error.
    pub(crate) fn decode_workers(&mut self) -> Result<usize, CliError> {
        self.parsed(
            &format!("an integer in 0..={MAX_DECODE_WORKERS} (0 = serial)"),
            |&w| w <= MAX_DECODE_WORKERS,
        )
    }
}

/// `--metrics-out` and `--metrics-format` (`analyze`, `slice`, `check`).
#[derive(Default)]
pub(crate) struct MetricsFlags<'a> {
    pub(crate) out: Option<&'a str>,
    /// `--metrics-format json`; Prometheus text otherwise.
    json: bool,
}

impl<'a> MetricsFlags<'a> {
    /// Takes `flag` if it is one of the group's.
    pub(crate) fn take(&mut self, flag: &str, a: &mut Args<'a>) -> Result<bool, CliError> {
        match flag {
            "--metrics-out" => self.out = Some(a.value()?),
            "--metrics-format" => {
                let parse = |v: &str| match v {
                    "prom" => Some(false),
                    "json" => Some(true),
                    _ => None,
                };
                self.json = a.choice(parse, "`prom` or `json`")?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Snapshots `registry` and writes it to `path` atomically (tmp +
    /// fsync + rename), the same discipline as checkpoint writes: a
    /// reader never observes a torn snapshot, which is what lets
    /// `--metrics-every` re-export into a path a scraper is concurrently
    /// reading.
    pub(crate) fn export(&self, registry: &ppa::obs::Registry, path: &str) -> Result<(), CliError> {
        use std::io::Write as _;
        let snap = registry.snapshot();
        let text = if self.json {
            ppa::obs::json_text(&snap)
        } else {
            ppa::obs::prometheus_text(&snap)
        };
        let tmp = format!("{path}.tmp");
        let write = || {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)
        };
        write().map_err(|e| CliError::Io(format!("{path}: {e}")))
    }
}

/// The pipeline flags `ppa analyze` and `ppa serve` share; `None` is
/// the command's own default.
#[derive(Default)]
pub(crate) struct PipelineFlags<'a> {
    pub(crate) lenient: bool,
    pub(crate) reorder_window: Option<u64>,
    pub(crate) checkpoint_every: Option<u64>,
    pub(crate) checkpoint_compact_every: Option<usize>,
    pub(crate) decode_workers: Option<usize>,
    pub(crate) overheads: Option<&'a str>,
    pub(crate) metrics_every: Option<Duration>,
}

impl<'a> PipelineFlags<'a> {
    /// Takes `flag` if it is one of the group's.
    pub(crate) fn take(&mut self, flag: &str, a: &mut Args<'a>) -> Result<bool, CliError> {
        match flag {
            "--lenient" => self.lenient = true,
            "--reorder-window" => self.reorder_window = Some(a.nonneg()?),
            "--checkpoint-every" => self.checkpoint_every = Some(a.positive()?),
            "--checkpoint-compact-every" => {
                self.checkpoint_compact_every =
                    Some(a.parsed("a non-negative integer (0 = full snapshots only)", |_| true)?);
            }
            "--decode-workers" => self.decode_workers = Some(a.decode_workers()?),
            "--overheads" => self.overheads = Some(a.value()?),
            "--metrics-every" => {
                let secs = a.parsed("a positive number of seconds", |&n: &u64| n > 0)?;
                self.metrics_every = Some(Duration::from_secs(secs));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The `--overheads` spec, read and deserialised, or the Alliant
    /// default without the flag.
    pub(crate) fn overheads(&self) -> Result<ppa::trace::OverheadSpec, CliError> {
        let Some(p) = self.overheads else {
            return Ok(ppa::trace::OverheadSpec::alliant_default());
        };
        let text =
            std::fs::read_to_string(p).map_err(|e| CliError::NoInput(format!("{p}: {e}")))?;
        serde_json::from_str(&text).map_err(|e| CliError::Data(format!("{p}: {e}")))
    }
}
