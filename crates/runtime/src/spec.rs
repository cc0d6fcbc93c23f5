//! One run description: [`RunSpec`] says what one child `npb` run is,
//! and is the only place its flag and JSON spellings and its
//! cross-field rules are written.
//!
//! The paper describes a run with a benchmark, a class, a style and a
//! thread count (§4); this reproduction adds a backend, a scheduling
//! policy, a spin budget, a fault to inject, a watchdog, the SDC guard
//! and resource caps. Every front end goes through this type:
//!
//! * `npb` and the procs workers read their flags with
//!   [`RunSpec::parse_flag`], and `npb-suite` reads every flag but its
//!   list axes and sweep options with it;
//! * the suite supervisor and the procs parent write a child's command
//!   line with [`RunSpec::to_argv`], its exact inverse;
//! * `npbd` reads a submitted job's run fields with
//!   [`RunSpec::from_json`] and journals them with
//!   [`RunSpec::json_fields`];
//! * [`RunSpec::validate`] holds the rules that span fields, so a run
//!   that cannot work is refused before any child is spawned for it.

use std::fmt::Display;
use std::str::FromStr;

use npb_core::guard::parse_checkpoint_every;
use npb_core::json::{json_escape, Json, MAX_EXACT_UINT};
use npb_core::{Class, ResourceLimits, Style, BENCHMARKS};

use crate::{Backend, FaultKind, FaultPlan, Sched};

/// The widest run any front end accepts: 8× the paper's widest column
/// (32 threads). A width is a thread or process count, and nothing asks
/// for a million of either on purpose.
pub const MAX_WIDTH: usize = 256;

/// What one child `npb` run needs (see the module docs). The default
/// is a class S opt serial run on the threads backend, statically
/// scheduled, with no fault, no guard and no caps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// Benchmark name, as given (`npb` also accepts `all`).
    pub bench: String,
    pub class: Class,
    pub style: Style,
    /// Worker threads, or procs ranks; 0 is the serial path.
    pub threads: usize,
    pub backend: Backend,
    pub sched: Sched,
    /// Spin-then-park budget in µs; `None` keeps the team's default and
    /// `Some(0)` parks at once (the paper's wait/notify).
    pub spin_us: Option<u64>,
    /// One-shot fault armed before the run.
    pub inject: Option<FaultPlan>,
    /// In-process region watchdog, in ms (also the procs round deadline).
    pub timeout_ms: Option<u64>,
    pub sdc_guard: bool,
    /// Guard checkpoint cadence in outer iterations; `None` keeps the
    /// guard's default.
    pub checkpoint_every: Option<usize>,
    /// Caps the child applies to itself before it runs.
    pub limits: ResourceLimits,
}

/// What [`RunSpec::parse_flag`] made of one argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flag {
    /// A run flag, applied to the spec.
    Run,
    /// A run flag whose malformed value was ignored, with the warning
    /// to print: a bad checkpoint cadence keeps the default instead of
    /// killing a long batch run.
    Ignored(String),
    /// Not a run flag: the caller's own.
    Other,
}

impl RunSpec {
    /// A default run of `bench`.
    pub fn new(bench: &str) -> RunSpec {
        RunSpec { bench: bench.to_string(), ..RunSpec::default() }
    }

    /// The rules that span fields. Every front end calls this before it
    /// spawns anything, so a run that cannot work is a usage error, a
    /// `RunError::Config` or a `bad-request`, never a wasted child.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads > MAX_WIDTH {
            return Err(format!(
                "threads {} is wider than the widest run accepted, {MAX_WIDTH}",
                self.threads
            ));
        }
        if self.backend == Backend::Procs && self.sched != Sched::Static {
            return Err(format!(
                "sched {} requires the threads backend: the procs backend partitions \
                 every region statically across its worker processes",
                self.sched.label()
            ));
        }
        if self.backend == Backend::Procs && self.threads == 0 {
            return Err("the procs backend needs threads >= 1 (one worker process per rank)".into());
        }
        // NaN and bit-flip faults corrupt data on the driving thread: no
        // worker needed, and nothing that crosses a procs exec.
        match self.inject.map(|p| (p, matches!(p.kind, FaultKind::Nan | FaultKind::BitFlip))) {
            Some((p, false)) if self.threads == 0 => {
                Err(format!("fault {} needs worker threads (threads >= 1)", p.spec()))
            }
            Some((p, true)) if self.backend == Backend::Procs => Err(format!(
                "fault {} corrupts in-process state and cannot cross the procs exec boundary; \
                 procs supports panic|delay|hang",
                p.spec()
            )),
            _ => Ok(()),
        }
    }

    /// The child command line for this run, benchmark first. Fields at
    /// their default are left out, except class, style and width, which
    /// are always spelled. [`RunSpec::parse_flag`] reads it back exactly.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![self.bench.clone()];
        let mut flag = |name: &str, value: Option<String>| {
            if let Some(v) = value {
                argv.extend([name.to_string(), v]);
            }
        };
        flag("--class", Some(self.class.to_string()));
        flag("--style", Some(self.style.label().to_string()));
        flag("--threads", Some(self.threads.to_string()));
        flag("--backend", (self.backend != Backend::Threads).then(|| self.backend.label().into()));
        flag("--sched", (self.sched != Sched::Static).then(|| self.sched.label().into()));
        flag("--spin-us", self.spin_us.map(|v| v.to_string()));
        flag("--inject", self.inject.map(|p| p.spec()));
        flag("--timeout", self.timeout_ms.map(|v| v.to_string()));
        flag("--checkpoint-every", self.checkpoint_every.map(|v| v.to_string()));
        flag("--mem-limit-mb", self.limits.mem_limit_mb.map(|v| v.to_string()));
        flag("--cpu-limit-s", self.limits.cpu_limit_s.map(|v| v.to_string()));
        flag("--fd-limit", self.limits.fd_limit.map(|v| v.to_string()));
        if self.sdc_guard {
            argv.push("--sdc-guard".to_string());
        }
        argv
    }

    /// Apply `flag`, taking its value from `rest` when it has one. Every
    /// value flag is also accepted as `--flag=value` once the arguments
    /// went through `expand_flag_args`. An error is a usage error.
    pub fn parse_flag<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<Flag, String> {
        let mut value = || rest.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let mut read = || value().and_then(|v| parse::<u64>(flag, &v));
        match flag {
            "--class" | "-c" => self.class = parse(flag, &value()?)?,
            "--style" | "-s" => self.style = parse(flag, &value()?)?,
            "--threads" | "-t" => self.threads = read()? as usize,
            "--backend" => self.backend = parse(flag, &value()?)?,
            "--sched" => self.sched = parse(flag, &value()?)?,
            "--spin-us" => self.spin_us = Some(read()?),
            "--inject" => self.inject = Some(FaultPlan::parse(&value()?)?),
            "--timeout" => self.timeout_ms = Some(read()?),
            "--checkpoint-every" => match parse_checkpoint_every(&value()?) {
                Ok(k) => self.checkpoint_every = Some(k),
                Err(msg) => return Ok(Flag::Ignored(msg)),
            },
            "--mem-limit-mb" => self.limits.mem_limit_mb = Some(read()?),
            "--cpu-limit-s" => self.limits.cpu_limit_s = Some(read()?),
            "--fd-limit" => self.limits.fd_limit = Some(read()?),
            "--sdc-guard" => self.sdc_guard = true,
            _ => return Ok(Flag::Other),
        }
        Ok(Flag::Run)
    }

    /// The run fields as a JSON-object fragment (no braces). Unset and
    /// default fields are written as `null`, so a journal record is
    /// self-describing. The watchdog and the fd cap are not on the wire:
    /// a daemon owns its children's deadline and descriptor table.
    pub fn json_fields(&self) -> String {
        let num = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let text = |v: Option<String>| v.map_or("null".to_string(), |s| format!("\"{s}\""));
        format!(
            "\"bench\":\"{}\",\"class\":\"{}\",\"style\":\"{}\",\"threads\":{},\"backend\":{},\
             \"sched\":{},\"spin_us\":{},\"inject\":{},\"sdc_guard\":{},\"checkpoint_every\":{},\
             \"mem_limit_mb\":{},\"cpu_limit_s\":{}",
            json_escape(&self.bench),
            self.class,
            self.style.label(),
            self.threads,
            text((self.backend != Backend::Threads).then(|| self.backend.label().into())),
            text((self.sched != Sched::Static).then(|| self.sched.label().into())),
            num(self.spin_us),
            text(self.inject.map(|p| p.spec())),
            self.sdc_guard,
            num(self.checkpoint_every.map(|k| k as u64)),
            num(self.limits.mem_limit_mb),
            num(self.limits.cpu_limit_s),
        )
    }

    /// Read the run fields of a request or journal object. Everything
    /// but `bench` has a default; a present-but-malformed field is an
    /// error, not a guess. Cross-field rules are [`RunSpec::validate`]'s.
    pub fn from_json(v: &Json) -> Result<RunSpec, String> {
        let bench = v.get_str("bench").ok_or("missing \"bench\"")?.to_ascii_uppercase();
        if !BENCHMARKS.contains(&bench.as_str()) {
            return Err(format!("unknown benchmark {bench:?} (expected one of {BENCHMARKS:?})"));
        }
        let cadence = |x: &Json| match uint(x)? {
            0 => Err("must be a positive integer (a cadence of 0 never checkpoints)".to_string()),
            k => Ok(k as usize),
        };
        let d = RunSpec::new(&bench);
        Ok(RunSpec {
            class: member(v, "class", label)?.unwrap_or(d.class),
            style: member(v, "style", label)?.unwrap_or(d.style),
            threads: member(v, "threads", uint)?.map_or(d.threads, |t| t as usize),
            backend: member(v, "backend", label)?.unwrap_or(d.backend),
            sched: member(v, "sched", label)?.unwrap_or(d.sched),
            spin_us: member(v, "spin_us", uint)?,
            inject: member(v, "inject", |x| FaultPlan::parse(&label::<String>(x)?))?,
            sdc_guard: member(v, "sdc_guard", boolean)?.unwrap_or(d.sdc_guard),
            checkpoint_every: member(v, "checkpoint_every", cadence)?,
            limits: ResourceLimits {
                mem_limit_mb: member(v, "mem_limit_mb", uint)?,
                cpu_limit_s: member(v, "cpu_limit_s", uint)?,
                fd_limit: None,
            },
            ..d
        })
    }
}

/// `raw` parsed as a `T`, or a usage error naming `flag`.
fn parse<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("{flag} {raw:?}: {e}"))
}

/// Member `key` of the object `v`, read by `read`: absent or `null` is
/// `None`, and a value `read` refuses is an error naming the key.
pub fn member<T>(
    v: &Json,
    key: &str,
    read: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => read(x).map(Some).map_err(|e| format!("\"{key}\" {e}")),
    }
}

/// A JSON string, parsed as a `T`.
pub fn label<T: FromStr>(x: &Json) -> Result<T, String>
where
    T::Err: Display,
{
    match x {
        Json::Str(s) => s.parse().map_err(|e| format!("is not valid: {e}")),
        _ => Err("must be a string or null".into()),
    }
}

/// A JSON number that is a non-negative integer no larger than
/// [`MAX_EXACT_UINT`], the largest one an `f64` reads back exactly.
pub fn uint(x: &Json) -> Result<u64, String> {
    x.as_uint()
        .ok_or_else(|| format!("must be a non-negative integer up to {MAX_EXACT_UINT} or null"))
}

/// A JSON boolean.
pub fn boolean(x: &Json) -> Result<bool, String> {
    match *x {
        Json::Bool(b) => Ok(b),
        _ => Err("must be a boolean or null".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::Randlc;

    /// Spec `i` of a seeded table: every field drawn from a menu that
    /// holds its default and at least one other value.
    fn drawn(rng: &mut Randlc) -> RunSpec {
        let mut pick = |n: usize| ((rng.next_f64() * n as f64) as usize).min(n - 1);
        let some = |on: usize, v: u64| (on > 0).then_some(v);
        let faults = ["panic:0", "delay:7", "hang:1", "nan:3", "bitflip:42"];
        let widths = [0, 1, 2, 3, 32, MAX_WIDTH, MAX_WIDTH + 1];
        RunSpec {
            bench: BENCHMARKS[pick(BENCHMARKS.len())].to_string(),
            class: [Class::S, Class::W, Class::A, Class::B, Class::C][pick(5)],
            style: [Style::Opt, Style::Safe][pick(2)],
            threads: widths[pick(widths.len())],
            backend: [Backend::Threads, Backend::Procs][pick(2)],
            sched: [Sched::Static, Sched::Guided, Sched::Feedback][pick(3)],
            spin_us: some(pick(3), [0, 50][pick(2)]),
            inject: (pick(2) > 0).then(|| FaultPlan::parse(faults[pick(faults.len())]).unwrap()),
            timeout_ms: some(pick(2), 1500),
            sdc_guard: pick(2) > 0,
            checkpoint_every: some(pick(2), 1 + pick(8) as u64).map(|k| k as usize),
            limits: ResourceLimits {
                mem_limit_mb: some(pick(2), 512),
                cpu_limit_s: some(pick(2), 60),
                fd_limit: some(pick(2), 64),
            },
        }
    }

    /// 400 specs off one seed, checked to set every field away from its
    /// default somewhere in the table.
    fn table() -> Vec<RunSpec> {
        let mut rng = Randlc::from_seed(41);
        let specs: Vec<RunSpec> = (0..400).map(|_| drawn(&mut rng)).collect();
        let d = RunSpec::new("");
        let fields: [(&str, fn(&RunSpec, &RunSpec) -> bool); 12] = [
            ("bench", |s, d| s.bench != d.bench),
            ("class", |s, d| s.class != d.class),
            ("style", |s, d| s.style != d.style),
            ("threads", |s, d| s.threads != d.threads),
            ("backend", |s, d| s.backend != d.backend),
            ("sched", |s, d| s.sched != d.sched),
            ("spin_us", |s, d| s.spin_us != d.spin_us),
            ("inject", |s, d| s.inject != d.inject),
            ("timeout_ms", |s, d| s.timeout_ms != d.timeout_ms),
            ("sdc_guard", |s, d| s.sdc_guard != d.sdc_guard),
            ("checkpoint_every", |s, d| s.checkpoint_every != d.checkpoint_every),
            ("limits", |s, d| s.limits != d.limits),
        ];
        for (name, differs) in fields {
            assert!(specs.iter().any(|s| differs(s, &d)), "the table never sets {name}");
        }
        specs
    }

    /// Read a `to_argv` command line back the way the binaries do.
    fn from_argv(argv: &[String]) -> RunSpec {
        let mut spec = RunSpec::new(&argv[0]);
        let mut it = argv[1..].iter();
        while let Some(flag) = it.next() {
            assert_eq!(spec.parse_flag(flag, &mut it), Ok(Flag::Run), "{flag} in {argv:?}");
        }
        spec
    }

    #[test]
    fn parse_flag_inverts_to_argv_over_the_seeded_table() {
        for spec in table() {
            assert_eq!(from_argv(&spec.to_argv()), spec);
        }
    }

    #[test]
    fn from_json_inverts_json_fields_over_the_seeded_table() {
        for spec in table() {
            // The daemon owns its children's watchdog and fd cap: the
            // wire carries every other field.
            let spec = RunSpec {
                timeout_ms: None,
                limits: ResourceLimits { fd_limit: None, ..spec.limits },
                ..spec
            };
            let v = Json::parse(&format!("{{{}}}", spec.json_fields())).unwrap();
            assert_eq!(RunSpec::from_json(&v), Ok(spec));
        }
    }

    #[test]
    fn to_argv_spells_a_default_run_with_its_three_axes_only() {
        assert_eq!(
            RunSpec::new("EP").to_argv(),
            ["EP", "--class", "S", "--style", "opt", "--threads", "0"]
        );
    }

    #[test]
    fn validate_holds_the_cross_field_rules() {
        let ok = |s: &RunSpec| s.validate().is_ok();
        let ep = |threads| RunSpec { threads, ..RunSpec::new("EP") };
        let fault =
            |spec: &str, threads| RunSpec { inject: FaultPlan::parse(spec).ok(), ..ep(threads) };
        let procs = |threads, sched| RunSpec { backend: Backend::Procs, sched, ..ep(threads) };
        assert!(ok(&ep(0)) && ok(&ep(MAX_WIDTH)));
        assert!(ep(MAX_WIDTH + 1).validate().unwrap_err().contains("wider than"));
        assert!(!ok(&ep(1_000_000)));
        assert!(ok(&procs(2, Sched::Static)));
        for sched in [Sched::Guided, Sched::Feedback] {
            assert!(procs(2, sched)
                .validate()
                .unwrap_err()
                .contains("requires the threads backend"));
            assert!(ok(&RunSpec { sched, ..ep(2) }), "threads schedule dynamically");
        }
        assert!(procs(0, Sched::Static).validate().unwrap_err().contains("threads >= 1"));
        for kind in ["panic:1", "delay:1", "hang:1"] {
            assert!(fault(kind, 0).validate().unwrap_err().contains("needs worker threads"));
            assert!(ok(&fault(kind, 1)));
        }
        // NaN and bit-flip faults corrupt data on the driving thread,
        // which a procs rank is not.
        assert!(ok(&fault("nan:1", 0)) && ok(&fault("bitflip:1", 0)));
        for kind in ["nan:1", "bitflip:1"] {
            let procs = RunSpec { backend: Backend::Procs, ..fault(kind, 2) };
            assert!(procs.validate().unwrap_err().contains("cannot cross the procs exec"));
        }
        assert!(ok(&RunSpec { backend: Backend::Procs, ..fault("panic:1", 2) }));
    }

    #[test]
    fn parse_flag_errors_ignores_and_passes_on() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut spec = RunSpec::new("EP");
        let parse =
            |spec: &mut RunSpec, argv: &[String]| spec.parse_flag(&argv[0], &mut argv[1..].iter());
        for bad in [
            &["--threads", "x"][..],
            &["--backend", "mpi"],
            &["--inject", "explode"],
            &["--sched"],
            &["--class", "Q"],
        ] {
            assert!(parse(&mut spec, &args(bad)).is_err(), "{bad:?}");
        }
        for cadence in ["0", "soon"] {
            let got = parse(&mut spec, &args(&["--checkpoint-every", cadence]));
            assert!(matches!(got, Ok(Flag::Ignored(m)) if m.contains(cadence)), "{cadence}");
        }
        assert_eq!(spec, RunSpec::new("EP"), "a refused or ignored value changes nothing");
        assert_eq!(parse(&mut spec, &args(&["--json"])), Ok(Flag::Other));
        assert_eq!(parse(&mut spec, &args(&["-t", "4"])), Ok(Flag::Run));
        assert_eq!(spec.threads, 4);
    }

    #[test]
    fn from_json_refuses_malformed_fields() {
        let parse = |body: &str| RunSpec::from_json(&Json::parse(&format!("{{{body}}}")).unwrap());
        assert_eq!(parse(r#""bench":"ep","threads":null"#), Ok(RunSpec::new("EP")));
        for bad in [
            r#""threads":2"#,
            r#""bench":"ZZ""#,
            r#""bench":"EP","threads":-1"#,
            r#""bench":"EP","threads":1.5"#,
            r#""bench":"EP","class":7"#,
            r#""bench":"EP","backend":"x""#,
            r#""bench":"EP","sched":1"#,
            r#""bench":"EP","inject":"bogus""#,
            r#""bench":"EP","sdc_guard":1"#,
            r#""bench":"EP","checkpoint_every":0"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
