//! `tq-perfbench`: runs one workload of the benchmark and prints its
//! metrics; the last line of standard output is the JSON result.
//!
//! ```text
//! tq-perfbench run --workload hot-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run` builds the store in a child process (`tq-perfbench setup …`), so
//! the peak memory this process reports is the serving engine's.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use tq_perfbench::data::{Plan, Scale, Workload};
use tq_perfbench::report::{self, Obj};
use tq_perfbench::run::{self, SetupRep};

const USAGE: &str = "usage: tq-perfbench run --workload <hot-read|nyt1> --seed <n> --seconds <s> --trace <0|1> [--work DIR] [--commit ID]
       tq-perfbench setup --workload <name> --seed <n> --dir DIR";

struct Args {
    command: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut raw = std::env::args().skip(1);
        let command = raw.next().ok_or(USAGE)?;
        let mut flags = Vec::new();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}\n{USAGE}"))?;
            let value = raw
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Args { command, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
    }

    fn plan(&self) -> Result<Plan, String> {
        let workload = self.required("workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
        let seed: u64 = self
            .required("seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?;
        let seconds: f64 = self
            .get("seconds")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seconds takes a number")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match self.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        Ok(Plan::new(workload, Scale::Full, seed, seconds, trace))
    }
}

fn main() {
    let result = Args::parse()
        .map_err(Into::into)
        .and_then(|args| match args.command.as_str() {
            "run" => run(&args),
            "setup" => setup(&args),
            other => Err(format!("unknown command {other}\n{USAGE}").into()),
        });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The set-up child: builds the store and prints one line per repetition.
fn setup(args: &Args) -> Result<(), run::Error> {
    let plan = args.plan()?;
    let dir = PathBuf::from(args.required("dir")?);
    for rep in run::setup(&plan, &dir)? {
        println!("{}", rep.to_line());
    }
    Ok(())
}

/// Runs the set-up child for `plan` into `dir`.
fn setup_child(args: &Args, dir: &Path) -> Result<Vec<SetupRep>, run::Error> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("setup").arg("--dir").arg(dir);
    for name in ["workload", "seed"] {
        if let Some(v) = args.get(name) {
            cmd.arg(format!("--{name}")).arg(v);
        }
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(format!("set-up failed ({})", out.status).into());
    }
    let reps: Vec<SetupRep> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(SetupRep::parse_line)
        .collect();
    if reps.is_empty() {
        return Err("set-up printed no repetitions".into());
    }
    Ok(reps)
}

fn run(args: &Args) -> Result<(), run::Error> {
    let plan = args.plan()?;
    let work = PathBuf::from(args.get("work").unwrap_or(".bench_work"));
    let run_dir = work.join(format!(
        "{}-{}-{}",
        plan.workload.name(),
        plan.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)?;
    let store = run_dir.join("store");
    let trace_path =
        work.join("traces")
            .join(format!("{}-seed{}.jsonl", plan.workload.name(), plan.seed));
    let outcome = setup_child(args, &store)
        .and_then(|reps| run::serve(&plan, &store, &reps, Some(&trace_path)));
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = outcome?;

    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {:<6} (n={})", m.name, m.value, m.unit, m.n);
    }
    for (what, ok) in &outcome.reconciliation {
        println!("reconcile {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for p in &outcome.tally.problems {
        println!("problem: {p}");
    }
    let mut meta = Obj::new().str("commit", args.get("commit").unwrap_or("unknown"));
    for (k, v) in &outcome.meta {
        meta = meta.raw(k, v.clone());
    }
    let mut rec = Obj::new();
    for (what, ok) in &outcome.reconciliation {
        rec = rec.raw(what, ok.to_string());
    }
    if plan.trace {
        meta = meta.raw("reconciliation", rec.render());
        meta = meta.str("trace_file", &trace_path.display().to_string());
    }
    println!("{}", Obj::new().raw("meta", meta.render()).render());
    println!(
        "{}",
        report::result_line(outcome.correct, &outcome.tally, &outcome.metrics)
    );
    Ok(())
}
