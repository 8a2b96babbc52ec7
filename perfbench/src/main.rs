use lncl_perfbench::report::result_line;
use lncl_perfbench::{fingerprint, run_workload, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // load comes from this one process, with as many threads as cores;
    // set before any library code reads (and caches) the thread budget
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("LNCL_THREADS", nproc.to_string());
    for var in ["LNCL_EPOCHS", "LNCL_REPS", "LNCL_SCALE"] {
        std::env::remove_var(var);
    }
    let print = fingerprint::fingerprint(&args.workload, args.seed);
    println!("fingerprint: {}", print.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join("; "));
    let outcome = run_workload(&args.workload, args.seed, args.seconds, args.trace).expect("workload validated");
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in metrics {
        println!(
            "metric {:<34} {:>16.6} {:<12} ({} samples)",
            m.name,
            m.value,
            lncl_perfbench::report::spec(m.name).unit,
            m.samples
        );
    }
    println!("{}", result_line(outcome.attempted, outcome.failed, metrics));
    ExitCode::SUCCESS
}
